"""Inefficiency ratios and random-cost sampling."""

import collections
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poakit import solvers
from poakit import (
    AtomicProfile,
    BudgetExceededError,
    CostPolynomial,
    EquilibriumResult,
    Game,
    Group,
    MixedProfile,
    PoaReport,
    SolverConfig,
    atomic_poa,
    compute_poa_report,
    enumerate_atomic_equilibria,
    exact_random_cost_distribution,
    mixed_poa_small,
    nonatomic_poa,
    sample_random_poa,
    solve_atomic_so,
    solve_mixed_ne_small,
    verify_wardrop,
)
import poakit.game
from poakit.game import PROB_TOL, SAMPLE_CHUNK, _word_cuts, draw_atomic_profile, sample_uniforms
from poakit.poa import (
    POA_FLOOR_TOL,
    SAMPLE_BLOCK,
    _add_counts,
    _block_costs,
    _two_user_two_path_worst,
    _worst_on_equilibrium_set,
)
from poakit.runner import load_asset

from conftest import (
    affine_offset_game,
    linear_double_game,
    no_equilibrium_game,
    parallel_game,
    point_mass_profile,
    poly,
    quadratic_constant_game,
    standard_error,
)

CFG = SolverConfig()


def _costs(game, profile, n, seed):
    """The realized costs of samples 0 .. n - 1: the sampler's blocks, joined."""
    block = _block_costs(game, profile)
    return np.concatenate([block(seed, start, min(SAMPLE_BLOCK, n - start))
                           for start in range(0, n, SAMPLE_BLOCK)])


class TestAtomicPoa:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_affine_offset_exact(self, n):
        value, status = atomic_poa(affine_offset_game(n), CFG)
        assert status == "ok"
        assert value == Fraction(8, 7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_linear_double_exact(self, n):
        value, status = atomic_poa(linear_double_game(n), CFG)
        assert value == Fraction(4, 3)

    def test_trivial_single_choice(self):
        value, status = atomic_poa(parallel_game([(1, 0)], [1]), CFG)
        assert value == 1

    def test_unavailable_without_equilibrium(self):
        value, status = atomic_poa(no_equilibrium_game(), CFG)
        assert value is None
        assert "no atomic equilibrium" in status


class TestNonatomicPoa:
    def test_quadratic_constant(self):
        value = nonatomic_poa(quadratic_constant_game(), CFG)[0]
        assert value == pytest.approx(18 / (18 - math.sqrt(6)), abs=1e-6)

    def test_pigou_pair(self):
        value = nonatomic_poa(parallel_game([(1, 0), (1,)], [1]), CFG)[0]
        assert value == pytest.approx(4 / 3, abs=1e-8)

    def test_single_arc_is_one(self):
        value = nonatomic_poa(parallel_game([(3, 0, 0)], [2]), CFG)[0]
        assert value == pytest.approx(1.0, abs=1e-12)


_LEAD = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
_COEFF = st.fractions(min_value=0, max_value=3, max_denominator=3)
_DEMAND = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=2)


@st.composite
def two_user_two_path_games(draw):
    """One group, two users, two paths over up to three arcs (paths may share arcs)."""
    demands = (draw(_DEMAND), draw(_DEMAND))
    if draw(st.integers(0, 4)) == 0:  # equal constant arcs: total indifference
        c = draw(_LEAD)
        return Game({"a": poly(c), "b": poly(c)}, [Group("od", (("a",), ("b",)), demands)])
    arcs = {}
    for i in range(draw(st.integers(2, 3))):
        rest = draw(st.lists(_COEFF, max_size=2))
        arcs[f"a{i}"] = CostPolynomial((draw(_LEAD), *rest))
    subsets = [s for r in range(1, len(arcs) + 1) for s in itertools.combinations(arcs, r)]
    first = draw(st.sampled_from(subsets))
    second = draw(st.sampled_from([s for s in subsets if s != first]))
    return Game(arcs, [Group("od", (first, second), demands)])


def pure_outcome_corners(game: Game) -> dict:
    """Realized (path-0 minus path-1 cost, total cost) at each pure profile.

    Keyed by (x, y), the two users' probabilities of taking path 0, and
    computed straight from the cost polynomials.
    """
    g = game.groups[0]
    corners = {}
    for x, y in itertools.product((0, 1), repeat=2):
        flow = {aid: 0 for aid in game.arc_ids}
        for on_path0, demand in zip((x, y), g.demands):
            for aid in g.paths[0 if on_path0 else 1]:
                flow[aid] += demand
        cost = {aid: game.arcs[aid].value(f) for aid, f in flow.items()}
        path = [sum(cost[aid] for aid in g.paths[pi]) for pi in (0, 1)]
        corners[x, y] = (path[0] - path[1], sum(flow[aid] * cost[aid] for aid in flow))
    return corners


def dense_grid_bounds(corners: dict, steps: int):
    """Brute-force bounds on the worst expected cost over the equilibrium set.

    The gap G and cost T at a mixed point (x, y) are the expectations of
    their pure-profile values in ``corners`` over the two independent
    choices.  They are evaluated exactly at every point of a (steps+1)^2
    grid.  Every grid edge on which G changes sign or vanishes holds an
    equilibrium, located exactly because G and T are affine along an edge;
    these and the pure corners that satisfy the used-path predicate give
    the lower bound (None if there are none).  The equilibrium set meets only
    grid cells with such an edge, and T peaks over a cell at a vertex, so the
    largest T at a vertex of those cells gives the upper bound.
    """
    # Grid values in integers, scaled by steps^2 * scale: exact and fast.
    scale = math.lcm(*(Fraction(v).denominator for pair in corners.values() for v in pair))
    ints = {c: [int(v * scale) for v in pair] for c, pair in corners.items()}

    def at(i, j):
        return [sum((i if cx else steps - i) * (j if cy else steps - j) * ints[cx, cy][k]
                    for cx, cy in ints) for k in (0, 1)]

    grid = {(i, j): at(i, j) for i in range(steps + 1) for j in range(steps + 1)}
    lower, upper = [], []
    for corner, on_path0 in (((0, 0), False), ((steps, steps), True)):
        gap, total = grid[corner]
        if (gap <= 0) if on_path0 else (gap >= 0):
            lower.append(total)
            upper.append(total)
    for i in range(steps):
        for j in range(steps):
            cell = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            crossing = False
            for p, q in zip(cell, cell[1:] + cell[:1]):
                (gp, tp), (gq, tq) = grid[p], grid[q]
                if gp * gq <= 0:
                    crossing = True
                    lower.append(max(tp, tq) if gp == gq else
                                 tp + Fraction(gp, gp - gq) * (tq - tp))
            if crossing:
                upper.append(max(grid[c][1] for c in cell))
    if not lower:
        return None, None
    unit = steps * steps * scale
    return Fraction(max(lower), unit), Fraction(max(upper), unit)


class TestMixedPoa:
    def test_certified_sweep_on_two_user_game(self):
        value, certified, status = mixed_poa_small(quadratic_constant_game(), CFG)
        assert certified
        assert value == pytest.approx(5 - 2.5 * math.sqrt(2), abs=1e-8)
        assert value >= 1.25

    def test_pure_profile_at_optimum(self):
        # Single user, linear vs constant: the only used path at the
        # equilibrium is also the atomic optimum, so the ratio is 1.
        game = parallel_game([(1, 0), (2,)], [1])
        value, certified, status = mixed_poa_small(game, CFG)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_single_heavy_user_indifference(self):
        # One user of demand 4 on x^2 vs 2: the expected-cost predicate
        # pins probability 1/8 on the quadratic arc (16x = 2), giving
        # expected cost 15 against the optimum 8.
        game = Game({"u": poly(1, 0, 0), "l": poly(2)},
                    [Group("od", (("u",), ("l",)), (Fraction(4),))])
        result = solve_mixed_ne_small(game, CFG)
        assert float(result.flow.probabilities[0][0][0]) == pytest.approx(1 / 8, abs=1e-10)
        value, certified, status = mixed_poa_small(game, CFG)
        assert value == pytest.approx(15 / 8, abs=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(game=two_user_two_path_games())
    def test_closed_form_bounds_dense_grid_reference(self, game):
        value, certified, status = mixed_poa_small(game, CFG)
        assert certified and status == "ok"
        so_cost = solve_atomic_so(game, CFG).cost
        lower, upper = dense_grid_bounds(pure_outcome_corners(game), steps=24)
        slack = 1e-12 * (1 + value)
        assert float(lower / so_cost) - slack <= value <= float(upper / so_cost) + slack

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           totals=st.lists(st.integers(0, 9), min_size=4, max_size=4))
    def test_closed_form_on_every_bilinear_gap(self, gaps, totals):
        # Arbitrary corner values reach the degenerate branches that games
        # with nondecreasing costs never produce: vertical segments of the
        # zero set, gaps independent of y, and total indifference.
        keys = list(itertools.product((0, 1), repeat=2))
        corners = {key: (Fraction(gv), Fraction(tv)) for key, gv, tv in zip(keys, gaps, totals)}
        worst = _worst_on_equilibrium_set({k: v[0] for k, v in corners.items()},
                                          {k: v[1] for k, v in corners.items()})
        lower, upper = dense_grid_bounds(corners, steps=12)
        assert worst is not None and lower is not None
        assert lower - 1e-12 <= worst <= upper + 1e-12

    def test_reuses_given_atomic_optimum(self):
        game = linear_double_game()
        equilibria = enumerate_atomic_equilibria(game, CFG)  # carries the optimum
        assert mixed_poa_small(game, CFG, equilibria) == mixed_poa_small(game, CFG)
        assert mixed_poa_small(game, CFG, equilibria) == (4 / 3, True, "ok")


class TestRandomPoa:
    def test_exact_distribution_support(self):
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        dist = sample_random_poa(game, mixed.flow, 10_000, SolverConfig(rng_seed=3))
        a = (math.sqrt(2) - 1) / 2
        want = {1.0: (1 - a) ** 2, 1.5: 2 * a * (1 - a), 8.0: a * a}
        assert len(dist.exact) == 3
        for (value, prob), (wv, wp) in zip(dist.exact, sorted(want.items())):
            assert value == pytest.approx(wv, abs=1e-12)
            assert prob == pytest.approx(wp, abs=1e-12)

    def test_degenerate_profile_point_mass(self):
        game = quadratic_constant_game()
        so = solve_atomic_so(game, CFG)
        dist = sample_random_poa(game, point_mass_profile(game, so.flow), 100, SolverConfig(rng_seed=0))
        assert dist.exact == [(1.0, 1.0)]
        assert dist.values.tolist() == [1.0] and dist.counts.tolist() == [100]

    def test_exact_mean_matches_expected_ratio(self):
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        dist = sample_random_poa(game, mixed.flow, 10_000, SolverConfig(rng_seed=3))
        assert dist.exact_mean == pytest.approx(5 - 2.5 * math.sqrt(2), abs=1e-9)

    def test_monte_carlo_mean_within_three_se(self):
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        dist = sample_random_poa(game, mixed.flow, 150_000, SolverConfig(rng_seed=11))
        assert dist.n_samples == 150_000
        se = standard_error(dist)
        assert abs(dist.empirical_mean - dist.exact_mean) <= 3 * se

    def test_sample_in_support(self):
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        dist = sample_random_poa(game, mixed.flow, 1, SolverConfig(rng_seed=5))
        assert dist.counts.tolist() == [1] and dist.values[0] in {1.0, 1.5, 8.0}

    def test_zero_samples_refused(self):
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sample_random_poa(game, mixed.flow, 0, CFG)

    def test_two_seeds_distinct_streams_same_exact_table(self):
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        d1 = sample_random_poa(game, mixed.flow, 20_000, SolverConfig(rng_seed=1))
        d2 = sample_random_poa(game, mixed.flow, 20_000, SolverConfig(rng_seed=2))
        assert not np.array_equal(_costs(game, mixed.flow, 20_000, 1),
                                  _costs(game, mixed.flow, 20_000, 2))
        assert d1.exact == d2.exact

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), start=st.integers(0, 3 * SAMPLE_CHUNK),
           count=st.integers(1, 2 * SAMPLE_CHUNK + 3), width=st.integers(1, 5),
           data=st.data())
    def test_split_ranges_draw_the_same_uniforms(self, seed, start, count, width, data):
        # Split points next to a stream-chunk boundary are drawn on purpose.
        # Widths 1 to 5 leave every remainder of start * width modulo the
        # four words of one generator step.
        boundary = SAMPLE_CHUNK - start % SAMPLE_CHUNK
        near = [b for b in (boundary - 1, boundary, boundary + 1) if b <= count]
        k = data.draw(st.integers(0, count) | st.sampled_from(near or [count]))
        whole = sample_uniforms(seed, start, count, width)
        parts = np.concatenate([sample_uniforms(seed, start, k, width),
                                sample_uniforms(seed, start + k, count - k, width)])
        assert parts.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_a_stream_last_row_drawn_alone(self, width):
        # The generator skips to the last row of a stream in whole steps and
        # a remainder, and lands where a draw from the start reaches it.
        alone = sample_uniforms(5, SAMPLE_CHUNK - 1, 1, width)
        assert alone.tobytes() == sample_uniforms(5, 0, SAMPLE_CHUNK, width)[-1:].tobytes()

    @pytest.mark.parametrize("start", [0, SAMPLE_BLOCK, SAMPLE_CHUNK - 1, SAMPLE_CHUNK,
                                       SAMPLE_CHUNK + 1])
    @pytest.mark.parametrize("count", [1, 2, SAMPLE_CHUNK + 5])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_words_read_as_numpys_doubles(self, start, count, width):
        # Each word w, read as (w >> 11) * 2**-53, is the double numpy's own
        # Generator.random draws from the same (seed, chunk) stream, built
        # here from numpy alone.  SAMPLE_CHUNK + 5 rows cross a chunk
        # boundary from every start, and so do 2 rows from SAMPLE_CHUNK - 1.
        seed = 13
        want = []
        for chunk in range(start // SAMPLE_CHUNK, (start + count - 1) // SAMPLE_CHUNK + 1):
            bits = np.random.Philox(seed=np.random.SeedSequence(entropy=(seed, chunk)))
            want.append(np.random.Generator(bits).random((SAMPLE_CHUNK, width)))
        want = np.concatenate(want)[start % SAMPLE_CHUNK:][:count]
        words = sample_uniforms(seed, start, count, width)
        assert words.dtype == np.uint64
        assert ((words >> 11) * 2.0 ** -53).tobytes() == want.tobytes()

    def test_shards_never_exceed_one_stream_chunk(self, monkeypatch):
        # Every draw is one block, or the short last one, starting on a block
        # boundary, so no block crosses a stream; three workers share them.
        import poakit.game

        calls = []
        draw = poakit.game.sample_uniforms

        def recording(seed, start, count, width):
            calls.append((start, count))  # list.append is atomic across threads
            return draw(seed, start, count, width)

        monkeypatch.setattr(poakit.game, "sample_uniforms", recording)
        monkeypatch.setattr(poakit.poa, "_sample_workers", lambda: 3)
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        sample_random_poa(game, mixed.flow, 3 * SAMPLE_CHUNK + 5, SolverConfig(rng_seed=1))
        assert sum(count for _, count in calls) == 3 * SAMPLE_CHUNK + 5
        assert all(count <= SAMPLE_BLOCK and start % SAMPLE_BLOCK == 0
                   for start, count in calls)
        assert SAMPLE_CHUNK % SAMPLE_BLOCK == 0

    @pytest.mark.parametrize("n", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   SAMPLE_CHUNK + 3, 3 * SAMPLE_CHUNK + 5])
    def test_table_does_not_depend_on_the_workers(self, monkeypatch, n):
        # One, two and three workers give the same table and mean, all equal
        # to the np.unique of every sample.
        game = load_asset("two_commodity_mixed_degree.json")
        mixed = solve_mixed_ne_small(game, CFG).flow
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that a lost update shows
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(poakit.poa, "_sample_workers", lambda: workers)
                dist = sample_random_poa(game, mixed, n, SolverConfig(rng_seed=9))
                seen.append((dist.values.tobytes(), dist.counts.tolist(), dist.empirical_mean))
        finally:
            sys.setswitchinterval(interval)
        assert seen[0] == seen[1] == seen[2]
        samples = _costs(game, mixed, n, 9) / float(solve_atomic_so(game, CFG).cost)
        values, counts = np.unique(samples, return_counts=True)
        assert seen[0][:2] == (values.tobytes(), counts.tolist())

    def test_table_counts_the_joined_shards(self):
        # Nine blocks of the asset's samples: the running table is the
        # np.unique of every sample, exceedances counted from it equal the
        # mean of the boolean array bit for bit, and the mean is the exact
        # one, rounded once.
        game = load_asset("two_commodity_mixed_degree.json")
        mixed = solve_mixed_ne_small(game, CFG).flow
        n = 2 * SAMPLE_CHUNK + 7
        dist = sample_random_poa(game, mixed, n, SolverConfig(rng_seed=4))
        samples = _costs(game, mixed, n, 4) / float(solve_atomic_so(game, CFG).cost)
        values, counts = np.unique(samples, return_counts=True)
        assert dist.values.tobytes() == values.tobytes()
        assert dist.counts.dtype == np.int64 and dist.counts.tolist() == counts.tolist()
        assert dist.n_samples == n and len(dist.samples) == n
        for t in [0.0, *values, *(values[:-1] + np.diff(values) / 2)]:
            from_table = int(dist.counts[dist.values > t].sum()) / n
            assert from_table == float((samples > t).mean())
        tally = collections.Counter(samples.tolist())
        assert dist.empirical_mean == float(sum(Fraction(v) * c for v, c in tally.items()) / n)

    @settings(max_examples=60, deadline=None)
    @given(old=st.dictionaries(st.integers(0, 30), st.integers(1, 2**40), max_size=12),
           new=st.dictionaries(st.integers(0, 30), st.integers(1, 2**40), max_size=12))
    def test_add_counts_merges_two_tables(self, old, new):
        def table(counts):
            keys = sorted(counts)
            return (np.array(keys, dtype=float) / 4,
                    np.array([counts[k] for k in keys], dtype=np.int64))

        values, counts = _add_counts(*table(old), *table(new))
        want_values, want_counts = table({k: old.get(k, 0) + new.get(k, 0)
                                          for k in {*old, *new}})
        assert values.tolist() == want_values.tolist()
        assert counts.dtype == np.int64 and counts.tolist() == want_counts.tolist()

    def test_exact_distribution_convolves_components(self):
        game = Game({"a": poly(1, 0), "b": poly(1, 0)},
                    [Group("g1", (("a",),), (Fraction(1),)),
                     Group("g2", (("b",),), (Fraction(1),))])
        profile = MixedProfile((((1.0,),), ((1.0,),)))
        dist = exact_random_cost_distribution(game, profile)
        assert dist == [(2.0, 1.0)]


@st.composite
def _profile_row(draw, k):
    """k path probabilities summing to 1, with exact zeros and, at times, the
    largest moved by PROB_TOL / 2 either way, so that the row sums to just
    above or just below 1, as a profile may."""
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    if not any(weights):
        weights[draw(st.integers(0, k - 1))] = 1
    row = [w / sum(weights) for w in weights]
    if draw(st.booleans()):
        row[row.index(max(row))] += draw(st.sampled_from([-PROB_TOL / 2, PROB_TOL / 2]))
    return tuple(row)


@st.composite
def sampled_games(draw):
    """A game of one or two groups with 1-4 paths each, and a mixed profile.

    Paths are nonempty subsets of up to four arcs, so a path may span several
    arcs and paths of one group may share an arc.
    """
    arcs = {f"a{i}": CostPolynomial((draw(_LEAD), *draw(st.lists(_COEFF, max_size=2))))
            for i in range(draw(st.integers(1, 4)))}
    subsets = [s for r in range(1, len(arcs) + 1) for s in itertools.combinations(arcs, r)]
    groups, rows = [], []
    for gi in range(draw(st.integers(1, 2))):
        free = [s for s in subsets if all(s not in g.paths for g in groups)]
        if not free:
            break
        paths = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
        demands = tuple(draw(st.lists(_DEMAND, min_size=1, max_size=3)))
        groups.append(Group(f"g{gi}", tuple(paths), demands))
        rows.append(tuple(draw(_profile_row(len(paths))) for _ in demands))
    return Game(arcs, groups), MixedProfile(tuple(rows))


def floated(game: Game) -> Game:
    """``game`` with every coefficient and demand given as a float, as the API
    allows; the game holds each as the float's exact value."""
    arcs = {aid: CostPolynomial(tuple(map(float, poly.coefficients)))
            for aid, poly in game.arcs.items()}
    return Game(arcs, [Group(g.gid, g.paths, tuple(map(float, g.demands)))
                       for g in game.groups])


def expected_corners_worst(game: Game):
    """``_two_user_two_path_worst`` by expectations: each pure corner as a
    mixed profile of Fraction probabilities through ``expected_arc_statistics``."""
    gaps, totals = {}, {}
    for x, y in itertools.product((0, 1), repeat=2):
        profile = MixedProfile((((Fraction(x), Fraction(1 - x)),
                                 (Fraction(y), Fraction(1 - y))),))
        stats = solvers.expected_arc_statistics(game, profile)
        costs = solvers.expected_path_costs(game, stats)
        gaps[x, y] = costs[0, 0] - costs[0, 1]
        totals[x, y] = solvers.expected_total_cost(stats)
    return _worst_on_equilibrium_set(gaps, totals)


def expected_pure_summaries(game: Game, equilibria) -> list:
    """(used-path gap, expected cost) of each pure equilibrium by expectations:
    its point-mass mixed profile through one ``expected_arc_statistics`` pass."""
    return [solvers._mixed_summary(game, point_mass_profile(game, e.flow))[1:]
            for e in equilibria.equilibria]


def mixed_poa_by_expectations(game: Game, equilibria, mixed_ne):
    """``mixed_poa_small`` with every pure profile costed by expectations."""
    g = game.groups[0]
    if len(game.groups) == 1 and (g.n_users, g.n_paths) == (2, 2):
        return float(expected_corners_worst(game) / equilibria.optimum.cost), True, "ok"
    candidates = [float(mixed_ne.cost)] if mixed_ne.converged else []
    candidates += [float(cost) for gap, cost in expected_pure_summaries(game, equilibria)
                   if gap <= CFG.tolerance]
    if not candidates:
        return None, False, "no mixed equilibrium found (solver failure)"
    return float(max(candidates) / equilibria.optimum.cost), False, "ok"


# A mixed solve that found nothing, so that only the pure candidates count.
NO_MIXED_NE = EquilibriumResult(flow=None, kind="mixed-ne", residual=math.inf, iterations=0,
                                exact=False, converged=False)

# The scan adds each component's arc terms, then the components; the
# expectations add every arc's term in the game's arc order.  In floats the
# two sums of this game's one pure equilibrium's cost would differ in the
# last bit (33.583333333333336 against 33.58333333333333); held exactly,
# they are one Fraction.
LAST_BIT_GAME = floated(Game(
    {"a0": poly(Fraction(1, 3)), "a1": poly(Fraction(4, 3), 2), "a2": poly(Fraction(3, 2)),
     "a3": poly(Fraction(1, 3), Fraction(5, 3))},
    [Group("g0", (("a1", "a3"),), (1, 2, Fraction(1, 2))), Group("g1", (("a0",),), (1,))]))


def assert_pure_costs_are_expectations(game: Game) -> None:
    """The scan's pure gaps and costs, and ``mixed_poa_small``'s ratio with
    and without a mixed solve, equal those of the point masses' expectations."""
    equilibria = enumerate_atomic_equilibria(game, CFG)
    pure = [(verify_wardrop(game, e.flow.induced_flow(game)), e.cost)
            for e in equilibria.equilibria]
    assert pure == expected_pure_summaries(game, equilibria)
    try:
        solved = solve_mixed_ne_small(game, CFG)
    except ValueError:  # outside the mixed solver's scope
        solved = NO_MIXED_NE
    for mixed_ne in (solved, NO_MIXED_NE):
        assert mixed_poa_small(game, CFG, equilibria, mixed_ne) == \
            mixed_poa_by_expectations(game, equilibria, mixed_ne)


class TestPureCostsAsExpectations:
    """``mixed_poa_small`` costs pure profiles from the scan and ``Game``'s
    evaluators; the expectations of their point masses are the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(drawn=sampled_games())
    def test_pure_profiles_cost_as_their_expectations(self, drawn):
        # A point mass's expectation is the exact Fraction of the pure state:
        # the scan's cost and the first-principle gap are the expected cost
        # and the mixed predicate's gap, so the candidates, and the ratio with
        # or without a mixed solve, are the same.
        assert_pure_costs_are_expectations(drawn[0])

    @settings(max_examples=100, deadline=None)
    @given(drawn=sampled_games())
    @example(drawn=(LAST_BIT_GAME, None))
    def test_float_games_move_at_most_a_last_bit(self, drawn):
        # A game given floats holds their exact values, so the scan's sums by
        # component and the expectations' sums in arc order, which in floats
        # would part in the last bit (LAST_BIT_GAME), are one Fraction: the
        # bound is now no bit at all.
        assert_pure_costs_are_expectations(floated(drawn[0]))

    @settings(max_examples=100, deadline=None)
    @given(game=two_user_two_path_games())
    def test_corners_cost_as_their_expectations(self, game):
        # Exact on the game and on its copy given floats.
        for g in (game, floated(game)):
            worst, want = _two_user_two_path_worst(g), expected_corners_worst(g)
            assert (type(worst), worst) == (type(want), want)


def uniforms_on_cuts(profile: MixedProfile):
    """A stand-in for ``sample_uniforms`` whose words sit on the profile's
    cumulative sums, as the scalar oracle accumulates them: a word w is the
    uniform (w >> 11) * 2**-53, and its numerator w >> 11 is put at K - 1, K
    and K + 1 for each sum's K = ceil(sum * 2**53), and at 0 and 2**53 - 1,
    with low 11 bits of 0 or 2047.  Row i is still a pure function of
    (seed, i); any run of len(pool) samples puts every pool word in every
    column."""
    top = 2 ** 53 - 1
    numerators = {0, top}
    for rows in profile.probabilities:
        for row in rows:
            acc = 0.0
            for p in row:
                acc += float(p)
                k = math.ceil(Fraction(acc) * 2 ** 53)
                numerators.update(m for m in (k - 1, k, k + 1) if 0 <= m <= top)
    pool = np.array(sorted(m << 11 | low for m in numerators for low in (0, 2047)), np.uint64)

    def uniforms(seed, start, count, width):
        i = np.arange(start, start + count)[:, None]
        return pool[(i * 7919 + np.arange(width) * 104729 + seed) % len(pool)]
    return uniforms


def cut_examples(test):
    """@example the integer cut rule at the cuts 0, the least subnormal,
    2**-53, 0.1, 1 - 2**-53, 1 and the float after 1 (a running sum that
    rounded past 1), each with the words 0 and 2**64 - 1 and the words
    (K << 11) - 1, K << 11 and (K << 11) | 2047 of its numerator K."""
    for c in (0.0, 5e-324, 2.0 ** -53, 0.1, 1 - 2.0 ** -53, 1.0, math.nextafter(1.0, 2.0)):
        k = math.ceil(Fraction(c) * 2**53)
        for w in (0, 2**64 - 1, (k << 11) - 1, k << 11, k << 11 | 2047):
            if 0 <= w < 2**64:
                test = example(c=c, w=w, near=None)(test)
    return test


def short_row_case():
    """Three paths with probabilities (1/2, 0, 1/2 - PROB_TOL / 2): two equal
    cut points, where a draw of 1/2 skips the empty path, and a row summing to
    just under 1, so the last path also takes every draw past its sum."""
    game = parallel_game([(1, 0), (2, 0), (3, 0)], [1])
    return game, MixedProfile((((0.5, 0.0, 0.5 - PROB_TOL / 2),),))


def two_path_users_case(k: int):
    """One group of k users on paths (a, c) and (b,), with seeded demands
    (some not exact in binary, so arc c's load depends on the order of its
    sum) and seeded probabilities, which may be 0 or 1: one component of
    2**k pure states."""
    rng = random.Random(k)
    demands = tuple(rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                Fraction(2)]) for _ in range(k))
    game = Game({"a": poly(1, 0, 0), "b": poly(2, 1), "c": poly(Fraction(1, 3), 0)},
                [Group("od", (("a", "c"), ("b",)), demands)])
    rows = []
    for _ in range(k):
        p = Fraction(rng.randint(0, 8), 8)
        rows.append((p, 1 - p))
    return game, MixedProfile((tuple(rows),))


def crowded_component_case():
    """Fourteen two-path users on (a, c) or (b,) and fifty one-path users on
    (c,), with seeded demands and probabilities: one component of 64 users
    and 2**14 pure states, so a table of every state."""
    rng = random.Random(64)
    twos = tuple(rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(1)]) for _ in range(14))
    ones = tuple(rng.choice([Fraction(1, 3), Fraction(2, 3), Fraction(1)]) for _ in range(50))
    game = Game({"a": poly(1, 0, 0), "b": poly(2, 1), "c": poly(Fraction(1, 3), 0)},
                [Group("od", (("a", "c"), ("b",)), twos), Group("c", (("c",),), ones)])
    rows = []
    for _ in twos:
        p = Fraction(rng.randint(0, 8), 8)
        rows.append((p, 1 - p))
    return game, MixedProfile((tuple(rows), tuple((Fraction(1),) for _ in ones)))


def interleaved_components_case():
    """Two groups on disjoint arcs listed alternately, and an arc on no path,
    with inexact demands and coefficients: the sum of the arcs' terms, in
    arc order, is not exact."""
    game = Game({"a": poly(Fraction(1, 3), 0, Fraction(1, 7)), "b": poly(Fraction(2, 3), 1),
                 "f": poly(Fraction(5, 7)), "c": poly(1, Fraction(1, 3), 0),
                 "d": poly(Fraction(1, 5), 0), "e": poly(Fraction(3, 7), Fraction(2, 3))},
                [Group("g1", (("a",), ("c",)), (Fraction(1, 3), Fraction(1, 2), Fraction(5, 3))),
                 Group("g2", (("b",), ("d", "e")), (Fraction(2, 3), Fraction(1, 5)))])
    profile = MixedProfile((((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2)),
                             (Fraction(3, 4), Fraction(1, 4))),
                            ((Fraction(2, 5), Fraction(3, 5)), (Fraction(1, 6), Fraction(5, 6)))))
    return game, profile


def wide_user_case():
    """One user of demand 3/2 on 300 single-link paths with a seeded profile:
    path indices past 255."""
    rng = random.Random(300)
    arcs = {f"l{i:03d}": poly(rng.randint(1, 3), rng.randint(0, 2)) for i in range(300)}
    weights = [rng.randint(0, 3) for _ in arcs]
    row = tuple(Fraction(w, sum(weights)) for w in weights)
    game = Game(arcs, [Group("od", tuple((aid,) for aid in arcs), (Fraction(3, 2),))])
    return game, MixedProfile(((row,),))


class TestSampler:
    """The vectorized sampler against the scalar oracle, and its pinned bytes."""

    @settings(max_examples=60, deadline=None)
    @given(case=sampled_games(), seed=st.integers(0, 2**32), on_cuts=st.booleans())
    @example(case=short_row_case(), seed=0, on_cuts=True)
    @example(case=two_path_users_case(14), seed=1, on_cuts=True)
    @example(case=two_path_users_case(15), seed=2, on_cuts=True)
    @example(case=wide_user_case(), seed=3, on_cuts=True)
    @example(case=crowded_component_case(), seed=4, on_cuts=True)
    def test_sampler_matches_scalar_oracle(self, case, seed, on_cuts):
        # on_cuts puts draws on the cut points and the floats either side,
        # where a path choice off by one comparison would go astray.  The
        # examples after the first take a component of SAMPLE_BLOCK pure
        # states, the most that is costed from tables; one of twice that,
        # costed sample by sample; path indices past 255; and a table
        # component of 64 users, most of them on one path.
        game, profile = case
        profile.validate(game)
        n = SAMPLE_CHUNK + 3
        indices = [*range(200), SAMPLE_CHUNK - 1, SAMPLE_CHUNK, n - 1]
        with pytest.MonkeyPatch.context() as mp:
            if on_cuts:
                mp.setattr(poakit.game, "sample_uniforms", uniforms_on_cuts(profile))
            costs = _costs(game, profile, n, seed)
            for i in indices:
                drawn = draw_atomic_profile(game, profile, seed, i)
                want = float(game.total_cost(drawn.induced_flow(game)))
                assert math.isclose(costs[i], want, rel_tol=1e-12), (i, drawn)

    @settings(max_examples=300, deadline=None)
    @cut_examples
    @given(c=st.floats(0.0, 2.0), w=st.integers(0, 2**64 - 1),
           near=st.none() | st.integers(-4096, 4096))
    def test_integer_cut_rule_is_the_float_rule(self, c, w, near):
        # A word reaches a cut's threshold exactly when its uniform is at or
        # above the cut; a cut no uniform reaches has no threshold.  `near`
        # moves the word next to the cut's own numerator K.
        if near is not None:
            w = min(max((math.ceil(Fraction(c) * 2**53) << 11) + near, 0), 2**64 - 1)
        cuts = _word_cuts((c, 0.0))
        assert len(cuts) <= 1 and all(0 <= t < 2**64 for t in cuts)
        assert (bool(cuts) and w >= cuts[0]) == ((w >> 11) * 2.0 ** -53 >= c)

    def test_a_large_component_is_costed_without_tables(self):
        # A component of more than SAMPLE_BLOCK pure states is costed sample
        # by sample, so building the sampler and costing one block takes
        # about one block's draws, whatever the state count: 2**17 states
        # take little more than 2**15, where tables of every state would
        # take several times as much.
        import tracemalloc

        def peak(k):
            case = two_path_users_case(k)
            tracemalloc.start()
            try:
                _block_costs(*case)(0, 0, SAMPLE_BLOCK)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(17) < 1.5 * peak(15)

    def test_pinned_bytes(self):
        """sha256 of the realized costs, seed 7, n = 3 * SAMPLE_CHUNK + 5.

        The cases are the asset at its mixed equilibrium, a three-path group
        whose paths share an arc, fifteen two-path users (one component of
        2**15 pure states), two components whose arcs alternate in arc order,
        one user on 300 paths and a table component of 64 users.  A change to the (seed, chunk) stream, to
        the path choice or to the order in which loads and costs are summed
        changes these bytes.  The hashes assume numpy's Philox generator and
        float64 ``_horner`` on numpy 2.4 arrays.
        """
        asset = load_asset("two_commodity_mixed_degree.json")
        at_ne = solve_mixed_ne_small(asset, CFG).flow
        three_path = Game({"a": poly(1, 0), "b": poly(2, 0, 1), "c": poly(1, 1, 0, 0),
                           "d": poly(3)},
                          [Group("od", (("a", "b"), ("b", "c"), ("d",)),
                                 (Fraction(1), Fraction(2), Fraction(1, 2)))])
        mixed = MixedProfile(((
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 5), Fraction(0), Fraction(4, 5)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),))

        def digest(game, profile):
            return hashlib.sha256(
                _costs(game, profile, 3 * SAMPLE_CHUNK + 5, 7).tobytes()).hexdigest()

        assert digest(asset, at_ne) == \
            "7587647683593331fb1117c1907eba36ab73456a8130474c1daba5a41dfd3df7"
        assert digest(three_path, mixed) == \
            "fa4c43230b4ea79b6f3be739bf6b1fac7f11ec80abb83797ecd4d9df13aa29a2"
        assert digest(*two_path_users_case(15)) == \
            "af0a6f59b27ac08790392948bf5a2813479e1c8f45e7e5dacab22331d78dc868"
        assert digest(*interleaved_components_case()) == \
            "676947d7c552c8b410152f36a49fac9fb7b9ce39fe895ca0cd8c44be2ce1ad9f"
        assert digest(*wide_user_case()) == \
            "d39e95ef8292fca649fc53e866f5efd0077287aac69e104f2f9011f867d0c955"
        assert digest(*crowded_component_case()) == \
            "49e04e6ec917dff646c6caeb58aab8eacfeb758f5c2ebedd33d1ba789a64b5cc"


@st.composite
def exact_distribution_cases(draw):
    """A ``sampled_games`` case of at most six users; at times its first group
    sits beside the first group of a second case, on arcs of its own."""
    game, profile = draw(sampled_games())
    if draw(st.booleans()):
        other, other_profile = draw(sampled_games())
        g, h = game.groups[0], other.groups[0]
        renamed = Group("h", tuple(tuple(f"b{aid}" for aid in path) for path in h.paths),
                        h.demands)
        game = Game({**game.arcs, **{f"b{aid}": p for aid, p in other.arcs.items()}},
                    [g, renamed])
        profile = MixedProfile((profile.probabilities[0], other_profile.probabilities[0]))
    return game, profile


def enumerated_cost_distribution(game: Game, profile: MixedProfile) -> list:
    """The realized-cost distribution by brute force: every pure profile with
    no zero-probability choice, weighted by the product of its users' choice
    probabilities and costed by ``game.total_cost``."""
    users = [(gi, row) for gi, rows in enumerate(profile.probabilities) for row in rows]
    dist: dict = {}
    for picks in itertools.product(*(range(len(row)) for _, row in users)):
        weights = [float(row[pi]) for (_, row), pi in zip(users, picks)]
        if 0.0 in weights:
            continue
        choices = tuple(tuple(pi for (gj, _), pi in zip(users, picks) if gj == gi)
                        for gi in range(len(game.groups)))
        cost = float(game.total_cost(AtomicProfile(choices).induced_flow(game)))
        dist[cost] = dist.get(cost, 0.0) + math.prod(weights)
    return merged_support(dist.items())


def merged_support(pairs) -> list:
    """``pairs`` sorted by value, each value within 1e-12 (relative) of the
    one before merged into it, so float sums in another order compare."""
    merged = []
    for value, prob in sorted(pairs):
        if merged and value - merged[-1][0] <= 1e-12 * max(1.0, abs(value)):
            merged[-1][1] += prob
        else:
            merged.append([value, prob])
    return merged


class TestExactDistribution:
    @settings(max_examples=80, deadline=None)
    @given(case=exact_distribution_cases())
    def test_matches_enumerated_pure_profiles(self, case):
        game, profile = case
        profile.validate(game)
        got = merged_support(exact_random_cost_distribution(game, profile))
        want = enumerated_cost_distribution(game, profile)
        assert len(got) == len(want)
        for (value, prob), (want_value, want_prob) in zip(got, want):
            assert math.isclose(value, want_value, rel_tol=1e-12)
            assert prob == pytest.approx(want_prob, abs=1e-12)

    def test_the_state_caps_hold_inside_the_fold(self, monkeypatch):
        # Users of demands 2^k on three paths: every assignment of the first
        # k users has its own loads, 3^k states in all.  Each fold stops at
        # the first source state past the cap, not after the whole user.
        import poakit.poa
        monkeypatch.setattr(poakit.poa, "EXACT_DISTRIBUTION_MAX_STATES", 10_000)
        sizes = []
        convolve = solvers._convolve
        monkeypatch.setattr(solvers, "_convolve", lambda *args, **kwargs: sizes.append(
            len(out := convolve(*args, **kwargs))) or out)
        paths = [(1, 0), (1, 2), (2, 1)]
        game = parallel_game(paths, [2**k for k in range(14)])
        profile = MixedProfile((((0.5, 0.25, 0.25),) * 14,))
        with pytest.raises(BudgetExceededError, match="state space too large"):
            exact_random_cost_distribution(game, profile)
        assert 10_000 < max(sizes) <= 10_000 + len(paths)
        # Two components of 3^6 states each: their costs convolve past the
        # cap, and that fold stops at the first cost of the first component
        # that takes it past the cap.
        sizes.clear()
        game = Game({f"{c}{i}": poly(*cs) for c in "ab" for i, cs in enumerate(paths)},
                    [Group(c, ((f"{c}0",), (f"{c}1",), (f"{c}2",)),
                           tuple(Fraction(base**k) for k in range(6)))
                     for c, base in (("a", 2), ("b", 3))])
        profile = MixedProfile((((0.5, 0.25, 0.25),) * 6,) * 2)
        with pytest.raises(BudgetExceededError, match="cost support too large"):
            exact_random_cost_distribution(game, profile)
        assert 10_000 < sizes[-1] <= 10_000 + 3**6  # each adds at most 3^6 costs


_INT_COEFFS = st.lists(st.integers(0, 9), min_size=2, max_size=3).map(
    lambda cs: (cs[0] + 1, *cs[1:]))
_BIG_DEMAND = st.fractions(min_value=1, max_value=10**6, max_denominator=9)


@st.composite
def coinciding_optima_games(draw):
    """A game whose atomic and non-atomic optima are equal: k equal users on k
    identical parallel arcs, or groups of one path each."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return parallel_game([draw(_INT_COEFFS)] * k, [draw(_BIG_DEMAND)] * k)
    demands = st.lists(_BIG_DEMAND, min_size=1, max_size=3).map(tuple)
    return Game({f"a{i}": poly(*draw(_INT_COEFFS)) for i in range(k)},
                [Group(f"g{i}", ((f"a{i}",),), draw(demands)) for i in range(k)])


class TestReports:
    def test_full_report_on_quadratic_constant(self):
        report = compute_poa_report(quadratic_constant_game(), CFG)
        assert report.atomic_poa == 1
        assert report.nonatomic_poa == pytest.approx(18 / (18 - math.sqrt(6)), abs=1e-6)
        assert report.mixed_poa == pytest.approx(5 - 2.5 * math.sqrt(2), abs=1e-8)
        assert report.mixed_certified
        assert float(report.atomic_so_cost) >= report.nonatomic_so_cost - 1e-9

    def test_report_unavailable_atomic(self):
        report = compute_poa_report(no_equilibrium_game(), CFG)
        assert report.atomic_poa is None
        assert "no atomic equilibrium" in report.atomic_status

    def test_mixed_status_names_the_exceeded_budget(self):
        # Two users on two paths are in the mixed solver's scope; only the
        # atomic optimum, the ratio's denominator, is missing.
        report = compute_poa_report(linear_double_game(), SolverConfig(enumeration_budget=1))
        assert report.mixed_poa is None and report.mixed_ne is not None
        assert report.mixed_status == ("unavailable: enumeration budget exceeded; "
                                       "no atomic optimum")

    @settings(max_examples=150, deadline=None)
    @given(drawn=sampled_games())
    @example(drawn=(no_equilibrium_game(), None))
    def test_report_agrees_with_each_ratio_alone(self, drawn):
        # The report takes each ratio from the function that computes it
        # alone: the same values, statuses and certified flag.  Drawn games
        # rarely lack a pure equilibrium, so the example holds one that does.
        game, _ = drawn
        try:
            nonatomic = nonatomic_poa(game, CFG)[0]
        except RuntimeError:  # a non-atomic solve did not converge
            assume(False)
        report = compute_poa_report(game, CFG)
        atomic, status = atomic_poa(game, CFG)
        assert (type(report.atomic_poa), report.atomic_poa) == (type(atomic), atomic)
        assert report.atomic_status == status
        assert report.nonatomic_poa.hex() == nonatomic.hex()
        try:
            solve_mixed_ne_small(game, CFG)
        except ValueError:  # outside the mixed solver's scope
            assert report.mixed_ne is None and report.mixed_poa is None
        else:
            assert (report.mixed_poa, report.mixed_certified, report.mixed_status) == \
                mixed_poa_small(game, CFG)

    def test_report_floor_validation(self):
        report = PoaReport(atomic_poa=0.5, nonatomic_poa=None, mixed_poa=None,
                           atomic_so_cost=None, nonatomic_so_cost=None)
        with pytest.raises(ValueError):
            report.validate()

    def test_denominator_ordering_validation(self):
        report = PoaReport(atomic_poa=None, nonatomic_poa=None, mixed_poa=None,
                           atomic_so_cost=1.0, nonatomic_so_cost=2.0)
        with pytest.raises(ValueError):
            report.validate()

    def test_loose_tolerance_keeps_both_checks(self):
        # However loose the solve, the slack stops short of accepting a ratio
        # of 0.5 or an atomic optimum half the non-atomic one.
        for report in (PoaReport(atomic_poa=0.5, nonatomic_poa=None, mixed_poa=None,
                                 atomic_so_cost=None, nonatomic_so_cost=None),
                       PoaReport(atomic_poa=None, nonatomic_poa=None, mixed_poa=None,
                                 atomic_so_cost=1.0, nonatomic_so_cost=2.0)):
            with pytest.raises(ValueError):
                report.validate(tolerance=1.0)

    @settings(max_examples=100, deadline=None)
    @given(game=coinciding_optima_games(), tolerance=st.sampled_from([1e-9, 1e-3]))
    @example(game=parallel_game([(5, 8)], [Fraction(295529, 3)]), tolerance=1e-9)
    @example(game=parallel_game([(Fraction(1, 10**6), 0)] * 3, [Fraction(1, 3)] * 3),
             tolerance=1e-9)
    @example(game=parallel_game([(Fraction(1, 10**9), 0)] * 3, [Fraction(1, 3)] * 3),
             tolerance=1e-9)
    def test_validation_accepts_coinciding_optima(self, game, tolerance):
        # The float non-atomic optimum may lie one rounding above the exact
        # atomic one, and at a loose tolerance as far above it as the solve
        # stops short.  The first example's float optimum is one ulp above;
        # on the two cheap games the solve stops up to 4e-11 above, which is
        # 12.5 % of the optimum at c = 1e-9.
        report = compute_poa_report(game, SolverConfig(tolerance=tolerance))
        assert float(report.atomic_so_cost) == pytest.approx(report.nonatomic_so_cost,
                                                              rel=tolerance, abs=POA_FLOOR_TOL)

    @pytest.mark.parametrize("game, in_mixed_scope",
                             [(quadratic_constant_game(), True),
                              (parallel_game([(1, 0), (1, 1), (2, 0)], [1, 1]), False)],
                             ids=["mixed-scope", "outside-mixed-scope"])
    def test_one_atomic_scan_per_report(self, game, in_mixed_scope, monkeypatch):
        scans = []

        def counted(*args):
            scans.append(args)
            return enumerate_atomic_equilibria(*args)

        monkeypatch.setattr("poakit.poa.enumerate_atomic_equilibria", counted)
        report = compute_poa_report(game, CFG)
        assert (report.mixed_ne is not None) == in_mixed_scope
        assert len(scans) == 1
        assert atomic_poa(game, CFG, report.equilibria) == (report.atomic_poa,
                                                            report.atomic_status)
        assert len(scans) == 1
