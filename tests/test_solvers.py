"""Equilibrium solvers: splittable, atomic, and mixed."""

import hashlib
import itertools
import math
import random
import struct
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poakit import blockscan, solvers
from poakit import (
    AtomicProfile,
    BudgetExceededError,
    CostPolynomial,
    Game,
    Group,
    MixedProfile,
    PathFlow,
    SolverConfig,
    best_response_atomic,
    enumerate_atomic_equilibria,
    exact_random_cost_distribution,
    expected_arc_statistics,
    expected_total_cost,
    load_game,
    mixed_poa_small,
    solve_atomic_so,
    solve_mixed_ne_small,
    solve_nonatomic_ne,
    solve_nonatomic_so,
    verify_wardrop,
)
from poakit.runner import load_asset

from conftest import (
    TWO_ARC_DIFFERENCE_GAME,
    affine_offset_game,
    arc_flow_moments,
    beckmann_potential,
    epsilon_ne_residual,
    flow_moments,
    linear_double_game,
    mixed_ne_residual,
    no_equilibrium_game,
    parallel_game,
    point_mass_profile,
    poly,
    quadratic_constant_game,
    two_commodity_game,
    uniform_profile,
)

CFG = SolverConfig()


class TestSolverConfig:
    def test_validation(self):
        for tolerance in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(tolerance=tolerance)
        with pytest.raises(ValueError):
            SolverConfig(enumeration_budget=0)
        cfg = SolverConfig(tolerance=1e-6, max_iterations=10, rng_seed=42,
                           enumeration_budget=100)
        assert cfg.tolerance == 1e-6


def shared_arc_multi_path_games(count: int = 40, seed: int = 1111) -> list:
    """Seeded rational games of one to four groups with one to four paths of
    one to four arcs each, drawn from one arc set (degree 0 to 4) so that
    paths of one group and of different groups share arcs."""
    rng = random.Random(seed)
    games = []
    while len(games) < count:
        ids = [f"a{i}" for i in range(rng.randint(4, 7))]
        arcs = {aid: poly(rng.randint(1, 4), *(Fraction(rng.randint(0, 8), 4)
                                               for _ in range(rng.randint(0, 4))))
                for aid in ids}
        taken, groups = set(), []
        for gi in range(rng.randint(1, 4)):
            paths = []
            for _ in range(rng.randint(1, 4)):
                path = tuple(sorted(rng.sample(ids, rng.randint(1, 4))))
                if path not in taken:
                    taken.add(path)
                    paths.append(path)
            if paths:
                demands = tuple(Fraction(rng.randint(1, 12), 4)
                                for _ in range(rng.randint(1, 3)))
                groups.append(Group(f"g{gi}", tuple(paths), demands))
        if groups:
            games.append(Game(arcs, groups))
    return games


def seeded_links_game(links: int = 300, seed: int = 300) -> Game:
    """One group of four distinct unit demands on ``links`` affine parallel links."""
    rng = random.Random(seed)
    coeffs = [(rng.randint(1, 5), rng.randint(0, 9)) for _ in range(links)]
    return parallel_game(coeffs, rng.sample(range(1, 7), 4))


def shared_arc_game(links: int = 12) -> Game:
    """One group with a path on its own arc ``d`` and ``links`` paths that
    each pair the shared arc ``s`` with one of identical links, so a move
    to or from ``d`` recosts every other path."""
    arcs = {"d": poly(3, 1), "s": poly(1, 0), **{f"l{k}": poly(2, 0) for k in range(links)}}
    paths = (("d",), *(("s", f"l{k}") for k in range(links)))
    return Game(arcs, [Group("od", paths, (Fraction(5), Fraction(2)))])


def tie_heavy_solves() -> list:
    """(game, config, start) triples whose moves pick among tied paths: identical
    parallel links, groups sharing one arc, tied starts and cut-off budgets."""
    identical = parallel_game([(1, 0)] * 12, [5])
    quadratic = parallel_game([(1, 0, 1)] * 13, [1, 2, 3])
    two_groups = Game({"s": poly(1, 1), "m": poly(2, 0), **{f"l{k}": poly(1, 0) for k in range(12)}},
                      [Group("a", tuple(("s", f"l{k}") for k in range(12)), (Fraction(3),)),
                       Group("b", (("s",), ("m",)), (Fraction(4), Fraction(1, 2)))])
    tied_start = PathFlow(identical, [1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0])
    solves = []
    for game, start in ((identical, None), (identical, tied_start), (quadratic, None),
                        (two_groups, None), (shared_arc_game(), None), (shared_arc_game(16), None)):
        for budget in (3, 11, 40, CFG.max_iterations):
            solves.append((game, SolverConfig(max_iterations=budget), start))
    return solves


@st.composite
def small_rational_games(draw, most: int = 3):
    """One to three groups of one to three users with fractional demands, on
    one to ``most`` paths of one to ``most`` arcs each; the three to five arcs
    (degree 0 to ``most``, fractional coefficients) may be shared by any paths."""
    fractions = st.builds(Fraction, st.integers(1, 4), st.sampled_from([1, 2, 3, 5]))
    lower = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)])
    arcs = {f"a{i}": poly(draw(fractions), *draw(st.lists(lower, max_size=most)))
            for i in range(draw(st.integers(3, 5)))}
    path_st = st.lists(st.sampled_from(sorted(arcs)), min_size=1, max_size=most,
                       unique=True).map(lambda arcs: tuple(sorted(arcs)))
    groups = []
    taken = set()
    for gi in range(draw(st.integers(1, 3))):
        paths = tuple(draw(st.lists(path_st, min_size=1, max_size=most, unique=True)))
        assume(not taken & set(paths))
        taken.update(paths)
        groups.append(Group(f"g{gi}", paths, tuple(draw(st.lists(fractions, min_size=1,
                                                                 max_size=3)))))
    return Game(arcs, groups)


class TestNonatomicNe:
    def test_pinned_bits(self):
        """sha256 of repr((flow, residual, moves, converged, cost)) per solve.

        A change to any float operation of a move, to the order in which a
        path's arc costs are summed, or to which path a tie picks, changes
        these bytes.
        """
        games = [load_asset(name) for name in ASSETS]
        games += [load_game(TWO_ARC_DIFFERENCE_GAME), *shared_arc_multi_path_games(),
                  seeded_links_game()]
        digest = hashlib.sha256()
        for game in games:
            for solve in (solve_nonatomic_ne, solve_nonatomic_so):
                result = solve(game, CFG)
                digest.update(repr((result.flow.values(), result.residual, result.iterations,
                                    result.converged, result.cost)).encode())
        assert digest.hexdigest() == \
            "e4bee9faca5e1e1b0b72bdd681a134d4745901aef7b8b28e7aa756764db9da11"

    def test_pinned_ties(self):
        """sha256 as in ``test_pinned_bits`` over ``tie_heavy_solves``: a change
        to which of several equally cheap, or equally costly used, paths a
        move picks changes these bytes."""
        digest = hashlib.sha256()
        for game, config, start in tie_heavy_solves():
            for solve in (solve_nonatomic_ne, solve_nonatomic_so):
                result = solve(game, config, start=start)
                digest.update(repr((result.flow.values(), result.residual, result.iterations,
                                    result.converged, result.cost)).encode())
        assert digest.hexdigest() == \
            "50405f8db1168caa0d03fb1b8189fcee79d3f49144ce9c220dbd9a7e6e22476b"

    def test_pick_heaps_stay_bounded_over_the_move_budget(self):
        # No solve converges at tolerance 1e-300, so each spends its whole
        # budget, and every move to or from path d recosts all 13 paths.
        # Heaps that kept every pushed entry would grow by about 500 bytes a
        # move; rebuilt, they hold at most eight entries a path.
        game = shared_arc_game()

        def peak(budget: int) -> int:
            tracemalloc.start()
            try:
                result = solve_nonatomic_ne(game, SolverConfig(tolerance=1e-300,
                                                               max_iterations=budget))
                assert result.iterations == budget
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # fills the polynomials' cached coefficients
        assert peak(4_000) <= 2 * peak(400)

    @settings(max_examples=150, deadline=None)
    @given(game=small_rational_games(most=4),
           solve=st.sampled_from([solve_nonatomic_ne, solve_nonatomic_so]))
    def test_converged_solve_is_a_fixed_point(self, game, solve):
        # A path cost left stale after a move would stop the solve early: the
        # restart, which costs every path afresh, would then move again.
        result = solve(game, CFG)
        if not result.converged:
            return
        again = solve(game, CFG, start=result.flow)
        assert again.iterations == 0
        assert again.flow.values() == result.flow.values()
        if solve is solve_nonatomic_ne:
            arc_costs = game.arc_cost_map(result.flow)
            highest = max(game.path_cost(result.flow, gi, pi, arc_costs)
                          for gi, pi in game.path_keys)
            assert verify_wardrop(game, result.flow) <= CFG.tolerance * (1 + highest)

    def test_quadratic_constant_split(self):
        game = quadratic_constant_game()
        result = solve_nonatomic_ne(game, CFG)
        assert result.converged
        assert float(result.flow.values()[0]) == pytest.approx(math.sqrt(2), abs=1e-8)
        assert float(result.flow.values()[1]) == pytest.approx(4 - math.sqrt(2), abs=1e-8)

    def test_boundary_equilibrium(self):
        game = parallel_game([(1, 0), (1,)], [1])  # x vs constant 1
        result = solve_nonatomic_ne(game, CFG)
        assert float(result.flow.values()[0]) == pytest.approx(1.0, abs=1e-9)
        assert float(result.flow.values()[1]) == pytest.approx(0.0, abs=1e-9)

    def test_linear_pair_closed_form(self):
        game = parallel_game([(1, 0), (2, 0)], [2])  # x vs 2x, demand 2
        result = solve_nonatomic_ne(game, CFG)
        assert float(result.flow.values()[0]) == pytest.approx(4 / 3, abs=1e-9)
        assert float(result.flow.values()[1]) == pytest.approx(2 / 3, abs=1e-9)
        costs = game.arc_cost_map(result.flow)
        assert float(costs["a0"]) == pytest.approx(4 / 3, abs=1e-8)

    @pytest.mark.parametrize("solve", [solve_nonatomic_ne, solve_nonatomic_so])
    def test_flow_stranded_on_steep_arc_is_not_converged(self, solve):
        # The line search's last bracket leaves about 0.009 units on l, below
        # the used threshold of 0.02 where the solution has about 2e-240.  At
        # that load l costs about 1e248, so the flow the residual cannot see
        # carries nearly all of the total cost.
        game = Game({"u": poly(1, 0), "l": poly(1e250, 1)},
                    [Group("od", (("u",), ("l",)), (Fraction(10**10),) * 2)])
        result = solve(game, CFG)
        assert result.residual == 0.0
        assert not result.converged

    def test_initialization_invariance(self):
        game = two_commodity_game(Fraction(2), Fraction(1))
        starts = [None, PathFlow(game, [0, 4, 0, 2])]
        cost_vectors = []
        for start in starts:
            result = solve_nonatomic_ne(game, CFG, start=start)
            costs = game.arc_cost_map(result.flow)
            cost_vectors.append([float(costs[aid]) for aid in game.arc_ids])
        for a, b in zip(*cost_vectors):
            assert abs(a - b) <= 10 * CFG.tolerance

    @pytest.mark.parametrize("demand", [Fraction(3), Fraction(7, 3)], ids=["3", "7/3"])
    def test_moves_and_residual_share_the_used_path_rule(self, demand):
        # The float product float(d) * 1e-12 lies above the exact threshold
        # d / 10**12 at these demands, so a flow equal to it is used.  The
        # moves must then shift it off the costlier path, or a solve would
        # report convergence with that path's gap as its residual.
        edge = float(demand) * float(solvers.USED_PATH_REL_TOL)
        assert Fraction(edge) > demand * solvers.USED_PATH_REL_TOL
        game = Game({"a": poly(1, 0), "b": poly(1, 5)},
                    [Group("od", (("a",), ("b",)), (demand,))])
        result = solve_nonatomic_ne(game, CFG, start=PathFlow(game, [float(demand) - edge, edge]))
        assert result.converged
        assert result.residual == 0.0 and result.flow.value(0, 1) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(num=st.integers(1, 10**30), den=st.integers(1, 10**30), step=st.integers(-3, 3))
    def test_float_used_rule_is_exact(self, num, den, step):
        """A float flow near the threshold is used by ``_used_bound``'s float
        bound exactly when it is above the exact threshold."""
        exact, bound = solvers._used_bound(Fraction(num, den))
        flow = float(exact)
        for _ in range(abs(step)):
            flow = math.nextafter(flow, math.copysign(math.inf, step))
        assert (flow > bound) == (Fraction(flow) > exact)


class TestNonatomicSo:
    def test_quadratic_constant_optimum(self):
        game = quadratic_constant_game()
        result = solve_nonatomic_so(game, CFG)
        assert float(result.flow.values()[0]) == pytest.approx(math.sqrt(2 / 3), abs=1e-7)
        assert float(result.cost) == pytest.approx(8 - 4 * math.sqrt(6) / 9, abs=1e-7)

    def test_affine_offset_optimum(self):
        game = affine_offset_game()
        result = solve_nonatomic_so(game, CFG)
        assert float(result.flow.values()[0]) == pytest.approx(0.75, abs=1e-8)
        assert float(result.cost) == pytest.approx(7 / 8, abs=1e-10)

    def test_single_arc(self):
        game = parallel_game([(1, 0)], [3])
        result = solve_nonatomic_so(game, CFG)
        assert float(result.cost) == pytest.approx(9.0)


def _plain_line_search(src_only, dst_only, arc_flow, polys, available):
    """``_segment_step`` without the replay: every halving calls the slope."""

    def slope(m):
        gain = loss = 0.0
        for a in dst_only:
            gain += solvers._horner(polys[a], arc_flow[a] + m)
        for a in src_only:
            loss += solvers._horner(polys[a], arc_flow[a] - m)
        return gain - loss

    hi = available
    top = slope(hi)
    if not math.isfinite(top):
        raise OverflowError(top)
    if top <= 0.0:
        return hi
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, available):
            break
    return 0.5 * (lo + hi)


_fraction_coefficients = st.lists(st.fractions(0, 20, max_denominator=12), min_size=1, max_size=5)
_coefficients = st.one_of(
    st.sampled_from([(1.0, 0.0), (2.0, 0.0), (1.0,), (1.0, 0.0, 0.0), (3.0, 1.0)]),
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=5).map(tuple),
    _fraction_coefficients.map(lambda cs: CostPolynomial(tuple(cs)).float_coefficients),
    _fraction_coefficients.map(lambda cs: CostPolynomial(tuple(cs)).marginal.float_coefficients))
_flows = st.one_of(st.just(0.0), st.integers(1, 20).map(float), st.floats(1e-7, 1e6))
_arcs = st.lists(st.tuples(_coefficients, _flows), max_size=3)


class TestLineSearch:
    @settings(max_examples=300, deadline=None)
    @given(src=_arcs, dst=_arcs, share=st.one_of(st.just(1.0), st.floats(1e-6, 1.0),
                                                 st.floats(1.0, 4.0)))
    @example(src=[((1.0, 0.0), 15.0)], dst=[((1.0, 0.0), 0.0)], share=1.0)  # slope 0 at 7.5 exactly
    # Source flow below available: the slope falls from 2 to 4, the plain loop
    # returns about 2.0 and a replay without the guard would return 1.0.
    @example(src=[((1.0, 2.0, 1.0, 3.0), 1.0)], dst=[((0.0, 0.0, 3.0), 4.0)], share=4.0)
    def test_replay_gives_the_bits_of_plain_bisection(self, src, dst, share):
        # ``share`` scales the smallest source flow into ``available``: at it,
        # below it, or past it, where the replay's guard sends the search to
        # the plain loop.
        assume(src or dst)
        arcs = [f"s{k}" for k in range(len(src))] + [f"d{k}" for k in range(len(dst))]
        polys = {a: cs for a, (cs, _) in zip(arcs, src + dst)}
        arc_flow = {a: flow for a, (_, flow) in zip(arcs, src + dst)}
        available = share * min((flow for _, flow in src), default=10.0)
        assume(available > 0.0)
        src_only, dst_only = arcs[:len(src)], arcs[len(src):]
        try:
            want = _plain_line_search(src_only, dst_only, arc_flow, polys, available)
        except OverflowError:
            with pytest.raises(OverflowError):
                solvers._segment_step(src_only, dst_only, arc_flow, polys, available)
            return
        got = solvers._segment_step(src_only, dst_only, arc_flow, polys, available)
        assert struct.pack("<d", got) == struct.pack("<d", want)

    @pytest.mark.parametrize("src_flow, dst_flow, dst_poly", [
        (15.0, 0.0, (1.0, 0.0)),  # x against x: the slope is 0 at 7.5 exactly
        (7.0, 2.0, (2.0, 1.0)),
        (1e6, 3.0, (2.0, 1.0, 0.5)),
    ])
    def test_replay_calls_the_slope_a_few_times(self, monkeypatch, src_flow, dst_flow, dst_poly):
        args = (["s"], ["d"], {"s": src_flow, "d": dst_flow}, {"s": (1.0, 0.0), "d": dst_poly},
                src_flow)
        calls = []
        horner = solvers._horner
        monkeypatch.setattr(solvers, "_horner", lambda cs, x: calls.append(x) or horner(cs, x))
        want = _plain_line_search(*args)
        plain = len(calls)
        calls.clear()
        assert solvers._segment_step(*args) == want
        assert plain >= 80 and len(calls) <= plain // 2


class TestBestResponse:
    def test_affine_offset_from_any_start(self):
        game = affine_offset_game()
        for start in itertools.product(range(2), repeat=4):
            result = best_response_atomic(game, CFG, AtomicProfile((start,)))
            assert result.converged
            assert result.flow.choices == ((0, 0, 0, 0),)
            assert result.cost == 1

    def test_split_retained_under_ties(self):
        game = linear_double_game()
        result = best_response_atomic(game, CFG, AtomicProfile(((0, 1),)))
        assert result.flow.choices == ((0, 1),)
        assert result.cost == 3

    def test_single_path_group_unchanged(self):
        game = parallel_game([(1, 0)], [1, 1])
        result = best_response_atomic(game, CFG, AtomicProfile(((0, 0),)))
        assert result.flow.choices == ((0, 0),)

    def test_no_equilibrium_budget_flagged(self):
        game = no_equilibrium_game()
        result = best_response_atomic(game, SolverConfig(max_iterations=500))
        assert not result.converged
        assert "budget" in result.note

    def test_identical_users_are_checked_once_between_moves(self, monkeypatch):
        # 40 unit users, five on each of 8 equal links: an equilibrium.  A
        # user who stays leaves every load as it was, so the next user of the
        # same group, load and link would read the same seven deviations.
        reads = []
        deviation_cost = solvers._ArcCosts.deviation_cost
        monkeypatch.setattr(solvers._ArcCosts, "deviation_cost",
                            lambda *args: reads.append(1) or deviation_cost(*args))
        start = tuple(i % 8 for i in range(40))
        result = best_response_atomic(parallel_game([(1, 0)] * 8, [1] * 40), CFG,
                                      AtomicProfile((start,)))
        assert result.converged and result.iterations == 0 and result.flow.choices == (start,)
        assert len(reads) == 8 * 7  # one user per link, not 40 * 7


class TestEnumeration:
    def test_linear_double_equilibrium_set(self):
        game = linear_double_game()
        eq = enumerate_atomic_equilibria(game, CFG)
        # split at cost 3, both-on-upper at cost 4
        assert sorted(e.cost for e in eq.equilibria) == [3, 4]
        assert eq.worst.cost == 4
        assert eq.optimum.exact

    def test_affine_offset_unique(self):
        game = affine_offset_game()
        eq = enumerate_atomic_equilibria(game, CFG)
        assert len(eq.equilibria) == 1
        assert eq.worst.cost == 1

    def test_single_user_single_path(self):
        game = parallel_game([(1, 0)], [1])
        eq = enumerate_atomic_equilibria(game, CFG)
        assert len(eq.equilibria) == 1
        assert eq.worst.cost == 1

    def test_no_equilibrium_game_empty(self):
        eq = enumerate_atomic_equilibria(no_equilibrium_game(), CFG)
        assert eq.equilibria == []
        assert eq.worst is None

    def test_budget_exceeded_signals(self):
        game = affine_offset_game(3)  # 12 users
        with pytest.raises(BudgetExceededError):
            enumerate_atomic_equilibria(game, SolverConfig(enumeration_budget=5))

    def test_matches_per_user_bruteforce_random_games(self):
        # Random small games, including shared arcs and mixed demands.
        import random
        rng = random.Random(99)
        games = []
        while len(games) < 25:
            n_arcs = rng.randint(3, 4)
            arcs = {f"a{i}": poly(rng.randint(1, 4),
                                  *[rng.choice([0, 1]) for _ in range(rng.randint(1, 2))])
                    for i in range(n_arcs)}
            ids = list(arcs)
            taken = set()
            groups = []
            feasible = True
            for gi in range(rng.choice([1, 2])):
                paths = []
                for _attempt in range(60):
                    path = tuple(sorted(rng.sample(ids, rng.choice([1, 2]))))
                    if frozenset(path) not in taken:
                        taken.add(frozenset(path))
                        paths.append(path)
                    if len(paths) == 2:
                        break
                else:
                    feasible = False
                    break
                demands = tuple(Fraction(rng.choice([1, 1, 2]))
                                for _ in range(rng.randint(1, 3)))
                groups.append(Group(f"g{gi}", tuple(paths), demands))
            if feasible:
                games.append(Game(arcs, groups))
        for game in games:
            eq = enumerate_atomic_equilibria(game, CFG)
            expected_flows = _bruteforce_equilibrium_flows(game)
            got_flows = {tuple(e.flow.induced_flow(game).values()) for e in eq.equilibria}
            assert got_flows == expected_flows

    def test_matches_per_user_bruteforce(self):
        # Double enumeration on games small enough to walk user-by-user.
        games = [linear_double_game(), affine_offset_game(),
                 two_commodity_game(Fraction(1), Fraction(2)),
                 no_equilibrium_game()]
        for game in games:
            eq = enumerate_atomic_equilibria(game, CFG)
            got_flows = {tuple(e.flow.induced_flow(game).values()) for e in eq.equilibria}
            assert got_flows == _bruteforce_equilibrium_flows(game)
            # One equilibrium per count state, and every brute-force one among them.
            got_states = [_class_counts(game, e.flow) for e in eq.equilibria]
            assert len(set(got_states)) == len(got_states)
            assert set(got_states) == {_class_counts(game, profile)
                                       for profile in _bruteforce_equilibria(game)}


def _class_counts(game, profile) -> tuple:
    """Per class (one group and one demand), in order of first use, how
    many of its users take each path."""
    counts: dict = {}
    for gi, (g, choices) in enumerate(zip(game.groups, profile.choices)):
        for d, pi in zip(g.demands, choices):
            counts.setdefault((gi, d), [0] * g.n_paths)[pi] += 1
    return tuple((key, tuple(row)) for key, row in counts.items())


def _bruteforce_equilibrium_flows(game) -> set:
    """The path flows of ``_bruteforce_equilibria``."""
    return {tuple(profile.induced_flow(game).values()) for profile in _bruteforce_equilibria(game)}


def _bruteforce_equilibria(game) -> list:
    """Oracle: walk every per-user assignment and apply the deviation test."""
    ranges = [range(g.n_paths) for g in game.groups for _ in g.demands]
    layout = [(gi, ui) for gi, g in enumerate(game.groups) for ui in range(g.n_users)]
    stable_profiles = []
    for combo in itertools.product(*ranges):
        picks = {}
        for (gi, ui), choice in zip(layout, combo):
            picks.setdefault(gi, {})[ui] = choice
        profile = AtomicProfile(tuple(
            tuple(picks[gi][ui] for ui in range(g.n_users))
            for gi, g in enumerate(game.groups)))
        fa = game.arc_flow(profile.induced_flow(game))
        arc_costs = {aid: game.arcs[aid].value(v) for aid, v in fa.items()}
        stable = True
        for gi, g in enumerate(game.groups):
            for ui, d in enumerate(g.demands):
                cur = profile.choices[gi][ui]
                cur_arcs = set(g.paths[cur])
                stay = sum(arc_costs[a] for a in g.paths[cur])
                for alt in range(g.n_paths):
                    if alt == cur:
                        continue
                    move = sum(arc_costs[a] if a in cur_arcs
                               else game.arcs[a].value(fa[a] + d)
                               for a in g.paths[alt])
                    if move < stay:
                        stable = False
                        break
                if not stable:
                    break
            if not stable:
                break
        if stable:
            stable_profiles.append(profile)
    return stable_profiles


@st.composite
def small_shared_arc_games(draw):
    """One or two groups of one to three users (demand 1 or 2) on two paths
    each, over three or four arcs that paths may share."""
    arcs = {f"a{i}": poly(draw(st.integers(1, 4)),
                          *draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2)))
            for i in range(draw(st.integers(3, 4)))}
    path_st = st.lists(st.sampled_from(sorted(arcs)), min_size=1, max_size=2, unique=True)
    groups = []
    taken = set()
    for gi in range(draw(st.integers(1, 2))):
        paths = tuple(tuple(sorted(draw(path_st))) for _ in range(2))
        assume(paths[0] != paths[1] and not taken & {paths[0], paths[1]})
        taken.update(paths)
        demands = tuple(Fraction(d) for d in draw(
            st.lists(st.sampled_from([1, 1, 2]), min_size=1, max_size=3)))
        groups.append(Group(f"g{gi}", paths, demands))
    return Game(arcs, groups)


def _bruteforce_optimum_cost(game):
    """Oracle: the least total cost over every per-user assignment."""
    best = None
    for combo in itertools.product(*[range(g.n_paths) for g in game.groups for _ in g.demands]):
        it = iter(combo)
        profile = AtomicProfile(tuple(tuple(next(it) for _ in range(g.n_users))
                                      for g in game.groups))
        cost = game.total_cost(profile.induced_flow(game))
        best = cost if best is None else min(best, cost)
    return best


class TestOneScan:
    @settings(max_examples=80, deadline=None)
    @given(game=small_shared_arc_games())
    def test_optimum_matches_bruteforce_and_bounds_equilibria(self, game):
        eq = enumerate_atomic_equilibria(game, CFG)
        assert eq.optimum.kind == "atomic-so"
        assert eq.optimum.cost == _bruteforce_optimum_cost(game)
        assert game.total_cost(eq.optimum.flow.induced_flow(game)) == eq.optimum.cost
        if eq.equilibria:
            costs = [e.cost for e in eq.equilibria]
            assert eq.optimum.cost <= min(costs) and max(costs) == eq.worst.cost
        assert solve_atomic_so(game, CFG).flow == eq.optimum.flow

    def test_optimum_without_pure_equilibrium(self):
        game = no_equilibrium_game()
        eq = enumerate_atomic_equilibria(game, CFG)
        assert eq.worst is None
        assert eq.optimum.cost == _bruteforce_optimum_cost(game)

    def test_budget_counts_every_component(self):
        # Two disjoint components of 4 count states each: each fits a budget
        # of 5, their sum of 8 does not.
        game = Game({"a": poly(1, 0), "b": poly(2, 0), "c": poly(1, 0), "d": poly(2, 0)},
                    [Group("ab", (("a",), ("b",)), (Fraction(1),) * 3),
                     Group("cd", (("c",), ("d",)), (Fraction(1),) * 3)])
        tight = SolverConfig(enumeration_budget=5)
        with pytest.raises(BudgetExceededError):
            enumerate_atomic_equilibria(game, tight)
        with pytest.raises(BudgetExceededError):
            solve_atomic_so(game, tight)
        assert enumerate_atomic_equilibria(game, SolverConfig(enumeration_budget=8)).states_scanned == 8


class TestAtomicSo:
    def test_affine_offset(self):
        game = affine_offset_game()
        so = solve_atomic_so(game, CFG)
        assert so.cost == Fraction(7, 8)
        flow = so.flow.induced_flow(game)
        assert flow.values()[0] == Fraction(3, 4)

    def test_linear_double(self):
        game = linear_double_game()
        so = solve_atomic_so(game, CFG)
        assert so.cost == 3

    def test_tie_between_identical_arcs(self):
        game = parallel_game([(2,), (2,)], [1])
        so = solve_atomic_so(game, CFG)
        assert so.cost == 2


def atomic_fields(r):
    """Everything an atomic result reports but its wall time."""
    return None if r is None else (r.flow, r.kind, r.cost, type(r.cost), r.iterations,
                                   r.converged, r.exact, r.residual, r.note)


def _atomic_outcome(game, max_iterations, start):
    """Everything enumeration and best response report but wall times."""
    try:
        eq = enumerate_atomic_equilibria(game, SolverConfig(enumeration_budget=2000))
        scan = (eq.states_scanned, eq.optimum.exact, atomic_fields(eq.optimum),
                atomic_fields(eq.worst), [atomic_fields(e) for e in eq.equilibria])
    except BudgetExceededError as exc:
        scan = str(exc)
    config = SolverConfig(max_iterations=max_iterations)
    return (scan, atomic_fields(best_response_atomic(game, config, start)),
            atomic_fields(best_response_atomic(game, config)))


def _lattice(game, reads=1):
    classes = solvers._user_classes(game, range(len(game.groups)))
    return solvers._arc_costs(game, classes, game.arc_ids, reads)


def _takes_lattice(game, reads=1) -> bool:
    """Whether the cost rows are tabulated up front."""
    return isinstance(_lattice(game, reads).tables[0], list)


def _cost_rows(game) -> list:
    """Every tabulated cost row, or the rows of loads 0 .. 3 read one at a time."""
    return [row for table in _lattice(game).tables
            for row in (table if isinstance(table, list) else map(table.__getitem__, range(4)))]


def seeded_profile(game, rng) -> MixedProfile:
    """Per user, Fraction path probabilities from small weights, exact zeros included."""
    rows = []
    for g in game.groups:
        group_rows = []
        for _ in g.demands:
            weights = [rng.randint(0, 3) for _ in g.paths]
            if not any(weights):
                weights[0] = 1
            group_rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
        rows.append(tuple(group_rows))
    return MixedProfile(tuple(rows))


class TestLattice:
    """Integer cost rows, tabulated or read one at a time, give exactly the
    costs of evaluating the polynomials on Fraction loads."""

    @pytest.mark.parametrize("max_rows, vector_min", [
        (solvers.LATTICE_MAX_ROWS, math.inf), (0, math.inf),
        (solvers.LATTICE_MAX_ROWS, 1), (0, 1)],
        ids=[str(solvers.LATTICE_MAX_ROWS), "0", f"{solvers.LATTICE_MAX_ROWS}-blocks", "0-blocks"])
    def test_pinned_bits(self, monkeypatch, max_rows, vector_min):
        """sha256 of repr of every exact atomic result and exact distribution:
        the scan's state count, worst equilibrium, optimum and equilibria,
        two best-response runs, and an exact cost distribution per game; one
        digest over the games built from Fractions and ints alone, one over
        those built with a float coefficient or demand.

        The pool holds the four assets, 40 seeded rational games, 60 seeded
        games that mix float and Fraction coefficients and demands, a
        weighted game with no pure equilibrium, games whose users are too
        large for tables and a game of float demands.  The digests are the
        same whether the games' cost rows are tabulated (default caps) or
        computed per read (no rows allowed), and whether the scan
        goes state by state or in numpy blocks wherever it may (``-blocks``;
        the game of 131071-unit users is past the int64 bound and stays on
        the state scan): a change to how an exact cost is computed, to a
        tie, or to the order in which a float cost or probability is summed
        changes these bytes.
        """
        monkeypatch.setattr(solvers, "LATTICE_MAX_ROWS", max_rows)
        monkeypatch.setattr(solvers, "VECTOR_MIN_STATES", vector_min)
        games = [(load_asset(name), False) for name in ASSETS]
        games += [(game, False) for game in shared_arc_multi_path_games()]
        games += shared_arc_two_path_games()
        games += [(no_equilibrium_game(), False),
                  (parallel_game([(1, 0), (2, 1)], [1, 10**5]), False),
                  (parallel_game([(1, 0, 0, 0), (2, 1, 0, 3)], [Fraction(1, 3), 2, 2, 131071]),
                   False),
                  (Game({"u": poly(1, 0), "l": poly(1, 1)},
                        [Group("od", (("u",), ("l",)), (0.5, 0.5, 1.7320508075688772))]), True)]
        rng = random.Random(12)
        digests = {False: hashlib.sha256(), True: hashlib.sha256()}  # keyed by floats
        for game, floats in games:
            eq = enumerate_atomic_equilibria(game, CFG)
            outcome = [eq.states_scanned, atomic_fields(eq.worst), atomic_fields(eq.optimum),
                       [atomic_fields(e) for e in eq.equilibria]]
            for config in (SolverConfig(max_iterations=3), CFG):
                outcome.append(atomic_fields(best_response_atomic(game, config)))
            outcome.append(exact_random_cost_distribution(game, seeded_profile(game, rng)))
            digests[floats].update(repr(outcome).encode())
        assert (digests[False].hexdigest(), digests[True].hexdigest()) == (
            "2a57d30a341d7c0648bc6bd870b1ab3ad3d3e654e63e4a383208d416b1653b35",
            "b4653bf61598fa65b6df28a1d07ee888e5aff63cb4ad09d58c03f71a73516a52")

    @settings(max_examples=120, deadline=None)
    @given(game=small_rational_games(), max_iterations=st.sampled_from([1, 3, 50]),
           rng=st.randoms(use_true_random=False))
    @example(game=no_equilibrium_game(), max_iterations=3, rng=random.Random(0))
    @example(game=no_equilibrium_game(), max_iterations=50, rng=random.Random(1))
    def test_lattice_matches_evaluated_costs(self, game, max_iterations, rng):
        start = AtomicProfile(tuple(tuple(rng.randrange(g.n_paths) for _ in g.demands)
                                    for g in game.groups))
        with pytest.MonkeyPatch.context() as mp:  # small games, tables however few the reads
            mp.setattr(solvers, "LATTICE_ROWS_PER_READ", solvers.LATTICE_MAX_ROWS)
            assert _takes_lattice(game)
            assert all(type(row) is int for row in _cost_rows(game))
            tabulated = _atomic_outcome(game, max_iterations, start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "LATTICE_MAX_ROWS", 0)
            assert not _takes_lattice(game)
            assert all(type(row) is int for row in _cost_rows(game))
            per_read = _atomic_outcome(game, max_iterations, start)
        assert tabulated == per_read
        # Both sides run on the lattice; check them against Fraction evaluation.
        scan, *responses = tabulated
        for profile, _, cost, cost_type, *_ in responses:
            assert cost_type is Fraction
            assert cost == game.total_cost(profile.induced_flow(game))
        if isinstance(scan, str):
            return
        _, _, optimum, worst, *_ = scan
        assert optimum[3] is Fraction
        if math.prod(g.n_paths ** g.n_users for g in game.groups) > 729:
            return
        assert optimum[2] == _bruteforce_optimum_cost(game)
        flows = [PathFlow(game, flow) for flow in _bruteforce_equilibrium_flows(game)]
        if worst is None:
            assert flows == []
        else:
            assert worst[2] == max(game.total_cost(flow) for flow in flows)

    def test_float_demands_are_held_exactly(self):
        # The oracle is the game of the floats' exact values, built by hand.
        floats = (0.5, 0.5, 1.7320508075688772)
        arcs = {"u": poly(1, 0), "l": poly(1, 1)}
        game = Game(arcs, [Group("od", (("u",), ("l",)), floats)])
        exact = Game(arcs, [Group("od", (("u",), ("l",)), tuple(map(Fraction, floats)))])
        assert all(type(row) is int for row in _cost_rows(game))  # on the lattice
        eq = enumerate_atomic_equilibria(game, CFG)
        got = {tuple(e.flow.induced_flow(game).values()) for e in eq.equilibria}
        assert got == _bruteforce_equilibrium_flows(exact)
        assert (eq.optimum.cost, type(eq.optimum.cost)) == \
            (_bruteforce_optimum_cost(exact), Fraction)
        assert eq.optimum.exact and all(e.exact for e in eq.equilibria)
        result = best_response_atomic(game, CFG)
        assert result.converged and result.exact
        assert (result.cost, type(result.cost)) == \
            (exact.total_cost(result.flow.induced_flow(exact)), Fraction)

    def test_tables_past_the_row_cap_are_evaluated(self):
        # One unit user and one of 10^9 units: the tables would need 2 * 10^9 rows.
        game = Game({"u": poly(1, 0), "l": poly(2, 1)},
                    [Group("od", (("u",), ("l",)), (Fraction(1), Fraction(10**9)))])
        assert not _takes_lattice(game, reads=10**9)
        assert all(type(row) is int for row in _cost_rows(game))
        eq = enumerate_atomic_equilibria(game, CFG)
        got = {tuple(e.flow.induced_flow(game).values()) for e in eq.equilibria}
        assert got == _bruteforce_equilibrium_flows(game)
        assert eq.optimum.cost == _bruteforce_optimum_cost(game)
        assert type(eq.optimum.cost) is Fraction
        result = best_response_atomic(game, CFG)
        assert result.converged and type(result.cost) is Fraction

    def test_tables_larger_than_the_reads_are_evaluated(self, monkeypatch):
        # One unit user and one of 10^5 units: 2 * 10^5 rows fit under the row
        # cap, but the scan reads 8 arc costs (4 states) and best response a
        # few per round, so building the tables would cost far more than it saves.
        game = Game({"u": poly(1, 0), "l": poly(2, 1)},
                    [Group("od", (("u",), ("l",)), (Fraction(1), Fraction(10**5)))])
        assert _takes_lattice(game, reads=10**5)
        built = []
        arc_costs = solvers._arc_costs

        def spy(*args):
            arcs = arc_costs(*args)
            built.append(isinstance(arcs.tables[0], list))
            return arcs

        monkeypatch.setattr(solvers, "_arc_costs", spy)
        eq = enumerate_atomic_equilibria(game, CFG)
        assert eq.states_scanned == 4
        assert eq.optimum.cost == _bruteforce_optimum_cost(game)
        assert type(eq.optimum.cost) is Fraction
        result = best_response_atomic(game, CFG)
        assert result.converged and type(result.cost) is Fraction
        assert built == [False, False]


def _scan_outcome(game, config=CFG) -> tuple:
    """Everything ``enumerate_atomic_equilibria`` reports but wall times."""
    eq = enumerate_atomic_equilibria(game, config)
    return (eq.states_scanned, atomic_fields(eq.optimum), atomic_fields(eq.worst),
            [atomic_fields(e) for e in eq.equilibria])


def _block_scans(monkeypatch, vector_min=1, block=blockscan.VECTOR_BLOCK) -> list:
    """Scan components of ``vector_min`` states or more in blocks of ``block``
    states; the returned list gets each block scan's state count."""
    monkeypatch.setattr(solvers, "VECTOR_MIN_STATES", vector_min)
    monkeypatch.setattr(blockscan, "VECTOR_BLOCK", block)
    scans = []
    scan_blocks = blockscan.scan_blocks

    def spy(comp, lattice):
        scans.append(comp.state_count())
        return scan_blocks(comp, lattice)

    monkeypatch.setattr(blockscan, "scan_blocks", spy)
    return scans


class TestBlockScan:
    """The block scan of a large rational component gives exactly the
    results of the state-by-state scan."""

    @settings(max_examples=120, deadline=None)
    @given(game=small_rational_games(), block=st.sampled_from([1, 2, 3, 7]))
    @example(game=no_equilibrium_game(), block=2)
    def test_matches_the_state_scan(self, game, block):
        # Blocks of 1, 2, 3 and 7 states split the classes' ways at every point.
        config = SolverConfig(enumeration_budget=2000)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "VECTOR_MIN_STATES", math.inf)
                by_state = _scan_outcome(game, config)
        except BudgetExceededError:
            assume(False)
        with pytest.MonkeyPatch.context() as mp:
            scans = _block_scans(mp, block=block)
            by_block = _scan_outcome(game, config)
        assert scans  # every component was scanned in blocks
        assert by_block == by_state

    @pytest.mark.parametrize("coeff, blocks", [((2**62 - 1) // 10, True),
                                               ((2**62 - 1) // 10 + 1, False)])
    def test_only_below_the_int64_bound(self, monkeypatch, coeff, blocks):
        # Two unit users on c x and c x + c: each arc reaches 2 units, so the
        # bound sum_a reach_a * tau_a(reach_a) is 2 * 2c + 2 * 3c = 10c, just
        # below 2**62 for the first c and just past it for the second; costs near
        # 10**18 are summed exactly either way.
        game = parallel_game([(coeff, 0), (coeff, coeff)], [1, 1])
        scans = _block_scans(monkeypatch)
        eq = enumerate_atomic_equilibria(game, CFG)
        assert bool(scans) is blocks
        assert eq.optimum.cost == _bruteforce_optimum_cost(game)
        got = {tuple(e.flow.induced_flow(game).values()) for e in eq.equilibria}
        assert got == _bruteforce_equilibrium_flows(game)
        outcome = _scan_outcome(game)
        monkeypatch.setattr(solvers, "VECTOR_MIN_STATES", math.inf)
        assert _scan_outcome(game) == outcome

    def test_a_float_group_leaves_its_neighbour_to_the_blocks(self, monkeypatch):
        # A group of one float user on arcs of its own beside 30 unit users
        # on three links (C(32, 2) = 496 states): the float is held as its
        # exact value, so the large component is still scanned in blocks.
        game = Game({"x": poly(1, 0), "y": poly(2, 1), "z": poly(1, 3),
                     "u": poly(1, 0), "v": poly(1, 1)},
                    [Group("units", (("x",), ("y",), ("z",)), (Fraction(1),) * 30),
                     Group("float", (("u",), ("v",)), (0.1,))])
        assert math.comb(32, 2) >= solvers.VECTOR_MIN_STATES
        scans = _block_scans(monkeypatch, vector_min=solvers.VECTOR_MIN_STATES)
        outcome = _scan_outcome(game)
        assert scans == [math.comb(32, 2)]
        monkeypatch.setattr(solvers, "VECTOR_MIN_STATES", math.inf)
        assert _scan_outcome(game) == outcome

    def test_a_million_users_in_bounded_memory(self, monkeypatch):
        """One two-path group of 10**6 unit users on x and 2x + 1.

        Its rows are past LATTICE_MAX_ROWS, so the state scan would compute
        every cost per read, one Python state at a time.  The block scan holds
        a few blocks of counts, loads and costs at a time: a table of the
        class's counts and loads alone would take 32 MB.  It returns one
        profile of 10**6 choices (8 MB), shared by the optimum and the one
        equilibrium.
        """
        def total(n, k):  # k users on x, the rest on 2x + 1
            return k * k + (n - k) * (2 * (n - k) + 1)

        n = 10**6
        game = Game({"x": poly(1, 0), "y": poly(2, 1)},
                    [Group("od", (("x",), ("y",)), (Fraction(1),) * n)])
        scans = _block_scans(monkeypatch, vector_min=solvers.VECTOR_MIN_STATES)

        def no_state_scan(self, visit):
            raise AssertionError("a state was scanned one at a time")

        # The work is counted, not timed: all n + 1 states go to the block
        # scan and none to the state scan.
        monkeypatch.setattr(solvers._ComponentScan, "scan", no_state_scan)
        tracemalloc.start()
        try:
            eq = enumerate_atomic_equilibria(game, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scans == [n + 1]
        assert peak < 16 * 2**20
        # The total is convex in k, least at the integers next to (4n + 1) / 6.
        k = (4 * n + 1) // 6
        assert eq.optimum.cost == min(total(n, k), total(n, k + 1))
        # The optimum is the one equilibrium (k = 666,667), and they share its choices.
        assert eq.worst.flow.choices[0] is eq.optimum.flow.choices[0]


@st.composite
def rational_mixed_profiles(draw, game):
    """A mixed profile of Fraction rows over ``game``, exact zeros included."""
    rows = []
    for g in game.groups:
        group_rows = []
        for _ in g.demands:
            weights = draw(st.lists(st.integers(0, 3), min_size=g.n_paths, max_size=g.n_paths))
            if not any(weights):
                weights[0] = 1
            group_rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
        rows.append(tuple(group_rows))
    return MixedProfile(tuple(rows))


class TestArcUsers:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_moments_are_those_of_the_flow_distribution(self, data):
        # Both read each arc's users from one fold; the mean and variance must
        # be, exactly, the first two moments of the convolved distribution.
        game = data.draw(small_rational_games())
        profile = data.draw(rational_mixed_profiles(game))
        moments = arc_flow_moments(game, profile)
        for aid in game.arc_ids:
            assert sum(solvers.arc_flow_distribution(game, profile, aid).values()) == 1
            assert moments[aid] == flow_moments(game, profile, aid)


ASSETS = ("parallel_affine_offset.json", "parallel_linear_double.json",
          "parallel_quadratic_constant.json", "two_commodity_mixed_degree.json")


def shared_arc_two_path_games(count: int = 60, seed: int = 4242, denominator: int = 4) -> list:
    """Seeded games of one to three groups with at most two paths each, drawn
    from one small arc set so that groups share arcs; coefficients and
    demands mix Fractions (multiples of 1 / ``denominator``) and floats.
    Each comes as ``(game, floats)``, ``floats`` telling whether any of its
    numbers was drawn as a float."""
    rng = random.Random(seed)
    drawn = []  # the numbers drawn for the game being built

    def number(low, high):
        if rng.random() < 0.5:
            drawn.append(Fraction(rng.randint(low * denominator, high * denominator), denominator))
        else:
            drawn.append(rng.uniform(low, high))
        return drawn[-1]

    games = []
    while len(games) < count:
        drawn.clear()
        ids = [f"a{i}" for i in range(rng.randint(3, 5))]
        arcs = {aid: CostPolynomial((number(1, 4), *(number(0, 3)
                                                     for _ in range(rng.randint(0, 3)))))
                for aid in ids}
        taken, groups = set(), []
        for gi in range(rng.randint(1, 3)):
            paths, n_paths = [], rng.choice((1, 2, 2, 2))
            while len(paths) < n_paths:
                path = tuple(sorted(rng.sample(ids, rng.randint(1, 3))))
                if frozenset(path) in taken:
                    break
                taken.add(frozenset(path))
                paths.append(path)
            if paths:
                demands = tuple(number(1, 3) for _ in range(rng.randint(1, 3)))
                groups.append(Group(f"g{gi}", tuple(paths), demands))
        if groups:
            games.append((Game(arcs, groups), any(isinstance(x, float) for x in drawn)))
    return games


class TestMixedSolver:
    def test_symmetric_indifference_point(self):
        game = quadratic_constant_game()
        result = solve_mixed_ne_small(game, CFG)
        assert result.converged
        x = float(result.flow.probabilities[0][0][0])
        assert x == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-10)
        assert mixed_ne_residual(game, result.flow) <= 1e-10
        # independent bilinear form of the indifference condition for two
        # users of demand 2 on x^2 vs the constant 2:
        # E[tau_u] = 4 q1 + 4 q2 + 8 q1 q2 must equal 2
        q1 = float(result.flow.probabilities[0][0][0])
        q2 = float(result.flow.probabilities[0][1][0])
        assert abs(4 * q1 + 4 * q2 + 8 * q1 * q2 - 2) <= 1e-9

    def test_exact_expectations_match_monte_carlo(self):
        # The convolution expectations are the solver's backbone; check the
        # headline value E[tau_u] = 2 at the solved profile by sampling.
        from poakit.game import sample_uniforms
        from poakit.solvers import expected_arc_statistics, expected_path_costs
        game = quadratic_constant_game()
        result = solve_mixed_ne_small(game, CFG)
        a = float(result.flow.probabilities[0][0][0])
        stats = expected_arc_statistics(game, result.flow)
        exact = float(expected_path_costs(game, stats)[(0, 0)])
        n = 400_000
        draws = (sample_uniforms(17, 0, n, 2) >> 11) * 2.0 ** -53
        f_u = 2.0 * (draws[:, 0] < a) + 2.0 * (draws[:, 1] < a)
        costs = f_u ** 2
        se = costs.std(ddof=1) / math.sqrt(n)
        assert abs(costs.mean() - exact) <= 3 * se
        assert exact == pytest.approx(2.0, abs=1e-10)

    def test_constant_costs_return_uniform(self):
        game = parallel_game([(2,), (2,)], [1, 1])
        result = solve_mixed_ne_small(game, CFG)
        assert result.flow.probabilities[0][0] == (0.5, 0.5)
        assert mixed_ne_residual(game, result.flow) == 0

    def test_single_path_groups_pure(self):
        game = parallel_game([(1, 0)], [1, 1])
        result = solve_mixed_ne_small(game, CFG)
        assert result.flow.probabilities[0][0] == (1.0,)

    def test_preconditions_enforced(self):
        too_many_paths = parallel_game([(1, 0), (2, 0), (3, 0)], [1])
        with pytest.raises(ValueError):
            solve_mixed_ne_small(too_many_paths, CFG)
        too_many_users = affine_offset_game(4)  # 16 users
        with pytest.raises(ValueError):
            solve_mixed_ne_small(too_many_users, CFG)

    def test_pinned_bits(self):
        """sha256 of repr((probabilities, residual, cost, sweeps)) per solve.

        A change to the order in which the exact expectations fold users in,
        or to any float operation of the bisection, changes these bytes.
        """
        games = [(load_asset(name), False) for name in ASSETS]
        games += [(load_game(TWO_ARC_DIFFERENCE_GAME), False), *shared_arc_two_path_games()]
        digests = {False: hashlib.sha256(), True: hashlib.sha256()}  # keyed by floats
        for game, floats in games:
            result = solve_mixed_ne_small(game, CFG)
            digests[floats].update(repr((result.flow.probabilities, result.residual, result.cost,
                                         result.iterations)).encode())
        assert (digests[False].hexdigest(), digests[True].hexdigest()) == (
            "2b3c2f236ca81dfa1f138666cb306fa8ddc01525c7afed875098ecea0f97e2c8",
            "eb35e933564b34213cacc011f31e9842dc194dc5bd35cdc93c643b54289dbb4b")

    def test_pinned_bits_over_a_seeded_pool(self):
        """sha256 of repr of every reported field of a solve but its wall time.

        The pool holds 60 seeded games whose groups share arcs, with float
        coefficients and demands (every game draws at least one float) and
        non-dyadic Fractions (multiples of 1/21); some need up to 18 sweeps.
        Each is solved with the default budget and with two sweeps, which
        leaves those unconverged.
        """
        pool = shared_arc_two_path_games(60, seed=2026, denominator=21)
        assert all(floats for _, floats in pool)
        digest = hashlib.sha256()
        for game, _ in pool:
            for config in (CFG, SolverConfig(max_iterations=2)):
                r = solve_mixed_ne_small(game, config)
                digest.update(repr((r.flow.probabilities, r.residual, r.iterations,
                                    r.converged, r.cost, r.note)).encode())
        assert digest.hexdigest() == \
            "699d9d8f132395b1048e9558c35c4f36c725be2aabaaa5fd2ee4ce75f5306312"

    def test_a_settled_group_is_not_bisected_again(self, monkeypatch):
        # One movable group: the second sweep finds the other groups' xs (there
        # are none) as they were when it settled, and evaluates no gap, so
        # the solve folds users in exactly as often as a one-sweep solve.
        game = load_asset("parallel_quadratic_constant.json")
        calls = []
        convolution = solvers._bernoulli_convolution
        monkeypatch.setattr(solvers, "_bernoulli_convolution",
                            lambda *args: calls.append(1) or convolution(*args))
        one_sweep = solve_mixed_ne_small(game, SolverConfig(max_iterations=1))
        one_sweep_calls = len(calls)
        calls.clear()
        result = solve_mixed_ne_small(game, CFG)
        assert (one_sweep.iterations, result.iterations) == (1, 2)
        assert len(calls) == one_sweep_calls
        assert result.flow == one_sweep.flow and result.converged

    def test_a_group_sharing_no_arc_with_a_mover_is_not_settled_again(self, monkeypatch):
        # od1 and od2 share no arc, so od2's move in the first sweep leaves
        # od1's gap as it was: the second sweep settles neither group, and the
        # solve builds one profile per first-sweep settle and the final one.
        game = load_asset("two_commodity_mixed_degree.json")
        built = []
        build = solvers._uniform_group_profile
        monkeypatch.setattr(solvers, "_uniform_group_profile",
                            lambda *args: built.append(1) or build(*args))
        result = solve_mixed_ne_small(game, CFG)
        assert (result.iterations, len(built)) == (2, 3) and result.converged

    def test_an_arc_no_gap_reads_may_pass_the_float_range(self):
        # Only the arcs a gap reads are converted to floats: an arc on no path
        # with a coefficient past 1.8e308 changes nothing, and a gap that
        # reads such an arc raises OverflowError, as Fraction Horner does.
        huge = Fraction(10**400, 3)
        game = quadratic_constant_game()
        spare = Game({**game.arcs, "x": poly(huge)}, game.groups)
        result, want = solve_mixed_ne_small(spare, CFG), solve_mixed_ne_small(game, CFG)
        assert (result.flow, result.residual, result.iterations, result.converged,
                result.cost) == (want.flow, want.residual, want.iterations,
                                 want.converged, want.cost)
        steep = Game({**game.arcs, "l": poly(1, huge)}, game.groups)
        with pytest.raises(OverflowError):
            solve_mixed_ne_small(steep, CFG)

    def test_one_exact_pass_per_profile(self, monkeypatch):
        # The solved profile's residual and cost take one exact pass.  Pure
        # profiles take none: three users on a constant arc against x + 2 give
        # a pure equilibrium (all on the constant arc) that meets the mixed
        # predicate, costed from the scan; two users on two paths give the
        # four certified corners, costed by Game's evaluators.
        passes = []
        exact = solvers.expected_arc_statistics
        monkeypatch.setattr(solvers, "expected_arc_statistics",
                            lambda *args: passes.append(1) or exact(*args))
        for game in (parallel_game([(1,), (1, 2)], [1, 1, 1]), quadratic_constant_game()):
            equilibria = enumerate_atomic_equilibria(game, CFG)
            passes.clear()
            mixed_ne = solve_mixed_ne_small(game, CFG)
            assert len(passes) == 1
            passes.clear()
            value, certified, _ = mixed_poa_small(game, CFG, equilibria, mixed_ne)
            assert passes == [] and certified == (game.n_users == 2)
            if certified:
                assert value == pytest.approx(5 - 2.5 * math.sqrt(2), abs=1e-8)
            else:
                (entry,) = equilibria.equilibria
                assert verify_wardrop(game, entry.flow.induced_flow(game)) <= CFG.tolerance
                want = max(float(mixed_ne.cost), float(entry.cost))
                assert value == want / float(equilibria.optimum.cost)


fraction_coefficients = (st.fractions(min_value=0)
                         | st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(10**400, 3)])
                         | st.builds(Fraction, st.integers(0, 10**330), st.integers(1, 10**12)))


class TestFloatHorner:
    @settings(max_examples=400, deadline=None)
    @given(coeffs=st.lists(fraction_coefficients, min_size=1, max_size=5),
           v=st.floats(min_value=0.0, allow_infinity=False))
    @example(coeffs=[Fraction(1, 3), Fraction(2, 7), Fraction(0)], v=0.1)
    @example(coeffs=[Fraction(1), Fraction(10**400, 3)], v=0.0)
    def test_float_coefficients_give_the_bits_of_fraction_horner(self, coeffs, v):
        """The mixed solver's gaps rest on this: at a float load, Horner over
        the coefficients converted once gives the bits of ``float(poly.value(v))``,
        and both raise OverflowError on the same coefficients."""
        def bits(evaluate):
            try:
                return struct.pack("<d", evaluate())
            except OverflowError:
                return OverflowError

        poly_value = CostPolynomial(tuple(coeffs)).value
        assert bits(lambda: solvers._horner([float(c) for c in coeffs], v)) == \
            bits(lambda: float(poly_value(v)))


class TestPredicates:
    def test_wardrop_residual_zero_at_equilibrium(self):
        game = quadratic_constant_game()
        result = solve_nonatomic_ne(game, CFG)
        assert verify_wardrop(game, result.flow) <= 1e-9

    def test_wardrop_residual_of_atomic_point(self):
        game = quadratic_constant_game()
        assert verify_wardrop(game, PathFlow(game, [0, 4])) == pytest.approx(2.0)

    def test_wardrop_single_path(self):
        game = parallel_game([(1, 0)], [1])
        assert verify_wardrop(game, PathFlow(game, [1])) == 0

    def test_epsilon_residual_closed_form(self):
        game = quadratic_constant_game()
        ne = solve_nonatomic_ne(game, CFG)
        assert float(epsilon_ne_residual(game, ne.flow)) <= 1e-9
        assert epsilon_ne_residual(game, PathFlow(game, [0, 4])) == 8
        assert epsilon_ne_residual(game, PathFlow(game, [4, 0])) == 56

    def test_epsilon_residual_rejects_infeasible(self):
        game = quadratic_constant_game()
        with pytest.raises(ValueError):
            epsilon_ne_residual(game, PathFlow(game, [1, 1]))

    def test_variational_inequality_at_equilibrium(self):
        import random
        game = two_commodity_game(Fraction(2), Fraction(1))
        ne = solve_nonatomic_ne(game, CFG)
        arc_costs = game.arc_cost_map(ne.flow)
        fa = game.arc_flow(ne.flow)
        rng = random.Random(4)
        cost = float(ne.cost)
        for _ in range(100):
            other = _random_feasible(game, rng)
            fb = game.arc_flow(other)
            inner = sum(float(arc_costs[aid]) * (float(fb[aid]) - float(fa[aid]))
                        for aid in game.arc_ids)
            assert inner >= -CFG.tolerance * (1 + cost)

    def test_potential_optimality(self):
        import random
        game = two_commodity_game(Fraction(2), Fraction(1))
        ne = solve_nonatomic_ne(game, CFG)
        phi_star = float(beckmann_potential(game, ne.flow))
        rng = random.Random(7)
        for _ in range(100):
            other = _random_feasible(game, rng)
            assert phi_star <= float(beckmann_potential(game, other)) + CFG.tolerance * (1 + phi_star)

    def test_atomic_wardrop_iff_mixed_predicate(self):
        # A pure assignment satisfies the first principle exactly when its
        # degenerate mixed profile satisfies the expected-cost predicate.
        for game in [quadratic_constant_game(), linear_double_game(),
                     two_commodity_game(Fraction(1), Fraction(1))]:
            for combo in itertools.product(*[range(g.n_paths) for g in game.groups
                                             for _ in g.demands]):
                it = iter(combo)
                profile = AtomicProfile(tuple(
                    tuple(next(it) for _ in range(g.n_users)) for g in game.groups))
                flow = profile.induced_flow(game)
                wardrop_ok = verify_wardrop(game, flow) <= 1e-12
                mixed_ok = mixed_ne_residual(game, point_mass_profile(game, profile)) <= 1e-12
                assert wardrop_ok == mixed_ok

    def test_optimum_cost_ordering_and_mixed_optimum(self):
        # Atomic optima cannot beat splittable optima, and the expected cost
        # over the atomic states is minimized by a degenerate profile.
        for game in [quadratic_constant_game(), affine_offset_game(),
                     linear_double_game(), two_commodity_game(Fraction(1), Fraction(2))]:
            so_at = solve_atomic_so(game, CFG)
            so_nat = solve_nonatomic_so(game, CFG)
            assert float(so_at.cost) >= float(so_nat.cost) - CFG.tolerance * (1 + float(so_at.cost))
            degenerate = point_mass_profile(game, so_at.flow)
            expected = expected_total_cost(expected_arc_statistics(game, degenerate))
            assert float(expected) == pytest.approx(float(so_at.cost), rel=1e-12)
            # any strictly mixed profile cannot do better than the atomic optimum
            uniform = uniform_profile(game)
            expected = expected_total_cost(expected_arc_statistics(game, uniform))
            assert float(expected) >= float(so_at.cost) - 1e-12


def _random_feasible(game, rng):
    values = []
    for g in game.groups:
        weights = [rng.random() for _ in range(g.n_paths)]
        total = sum(weights)
        values.extend(w / total * float(g.total_demand) for w in weights)
    return PathFlow(game, values)
