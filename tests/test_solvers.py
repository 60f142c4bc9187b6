"""Equilibrium solvers: splittable, atomic, and mixed."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poakit import solvers
from poakit import (
    AtomicProfile,
    BudgetExceededError,
    CostPolynomial,
    Game,
    Group,
    MixedProfile,
    PathFlow,
    SolverConfig,
    beckmann_potential,
    best_response_atomic,
    enumerate_atomic_equilibria,
    epsilon_ne_residual,
    expected_arc_flow_and_variance,
    expected_total_cost,
    load_game,
    mixed_ne_residual,
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
    linear_double_game,
    no_equilibrium_game,
    parallel_game,
    poly,
    quadratic_constant_game,
    two_commodity_game,
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


class TestNonatomicNe:
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


class TestEnumeration:
    def test_linear_double_equilibrium_set(self):
        game = linear_double_game()
        eq = enumerate_atomic_equilibria(game, CFG)
        by_cost = sorted((e.cost, e.multiplicity) for e in eq.equilibria)
        # split (two symmetric assignments) at cost 3, both-on-upper at cost 4
        assert by_cost == [(3, 2), (4, 1)]
        assert eq.worst.cost == 4
        assert eq.best.cost == 3
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
        assert eq.worst is None and eq.best is None

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
            assert got_flows == {f for f, _ in expected_flows}

    def test_matches_per_user_bruteforce(self):
        # Double enumeration on games small enough to walk user-by-user.
        games = [linear_double_game(), affine_offset_game(),
                 two_commodity_game(Fraction(1), Fraction(2)),
                 no_equilibrium_game()]
        for game in games:
            eq = enumerate_atomic_equilibria(game, CFG)
            expected_flows = _bruteforce_equilibrium_flows(game)
            got_flows = set()
            total_mult = 0
            for entry in eq.equilibria:
                got_flows.add(tuple(entry.flow.induced_flow(game).values()))
                total_mult += entry.multiplicity
            assert got_flows == {f for f, _ in expected_flows}
            assert total_mult == sum(m for _, m in expected_flows)


def _bruteforce_equilibrium_flows(game):
    """Oracle: walk every per-user assignment and apply the deviation test."""
    ranges = [range(g.n_paths) for g in game.groups for _ in g.demands]
    layout = [(gi, ui) for gi, g in enumerate(game.groups) for ui in range(g.n_users)]
    flows = {}
    for combo in itertools.product(*ranges):
        picks = {}
        for (gi, ui), choice in zip(layout, combo):
            picks.setdefault(gi, {})[ui] = choice
        profile = AtomicProfile(tuple(
            tuple(picks[gi][ui] for ui in range(g.n_users))
            for gi, g in enumerate(game.groups)))
        flow = profile.induced_flow(game)
        fa = game.arc_flow(flow)
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
            key = tuple(flow.values())
            flows[key] = flows.get(key, 0) + 1
    return [(k, m) for k, m in flows.items()]


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
            assert eq.optimum.cost <= eq.best.cost <= eq.worst.cost
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


@st.composite
def small_rational_games(draw):
    """One to three groups of one to three users with fractional demands, on
    one to three paths of one to three arcs each; the three to five arcs
    (degree 0 to 3, fractional coefficients) may be shared by any paths."""
    fractions = st.builds(Fraction, st.integers(1, 4), st.sampled_from([1, 2, 3, 5]))
    lower = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)])
    arcs = {f"a{i}": poly(draw(fractions), *draw(st.lists(lower, max_size=3)))
            for i in range(draw(st.integers(3, 5)))}
    path_st = st.lists(st.sampled_from(sorted(arcs)), min_size=1, max_size=3,
                       unique=True).map(lambda arcs: tuple(sorted(arcs)))
    groups = []
    taken = set()
    for gi in range(draw(st.integers(1, 3))):
        paths = tuple(draw(st.lists(path_st, min_size=1, max_size=3, unique=True)))
        assume(not taken & set(paths))
        taken.update(paths)
        groups.append(Group(f"g{gi}", paths, tuple(draw(st.lists(fractions, min_size=1,
                                                                 max_size=3)))))
    return Game(arcs, groups)


def _atomic_outcome(game, max_iterations, start):
    """Everything enumeration and best response report but wall times."""
    def fields(r):
        return None if r is None else (r.flow, r.kind, r.cost, type(r.cost), r.multiplicity,
                                       r.iterations, r.converged, r.exact, r.residual, r.note)

    try:
        eq = enumerate_atomic_equilibria(game, SolverConfig(enumeration_budget=2000))
        scan = (eq.states_scanned, eq.optimum.exact, fields(eq.optimum), fields(eq.worst),
                fields(eq.best), [fields(e) for e in eq.equilibria])
    except BudgetExceededError as exc:
        scan = str(exc)
    config = SolverConfig(max_iterations=max_iterations)
    return (scan, fields(best_response_atomic(game, config, start)),
            fields(best_response_atomic(game, config)))


def _takes_lattice(game, reads=1) -> bool:
    classes = solvers._user_classes(game, range(len(game.groups)))
    return isinstance(solvers._arc_costs(game, classes, game.arc_ids, reads).tables[0], list)


class TestLattice:
    """Integer cost tables give exactly what evaluating the polynomials gives."""

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
            on_lattice = _atomic_outcome(game, max_iterations, start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "LATTICE_MAX_ROWS", 0)
            assert not _takes_lattice(game)
            evaluated = _atomic_outcome(game, max_iterations, start)
        assert on_lattice == evaluated
        scan, *responses = on_lattice
        costs = [r[2] for r in responses] + ([] if isinstance(scan, str) else [scan[2][2]])
        assert all(type(c) is Fraction for c in costs)

    def test_float_demands_are_evaluated(self):
        game = Game({"u": poly(1, 0), "l": poly(1, 1)},
                    [Group("od", (("u",), ("l",)), (0.5, 0.5, 1.7320508075688772))])
        assert not game.is_rational and not _takes_lattice(game)
        eq = enumerate_atomic_equilibria(game, CFG)
        got = {tuple(e.flow.induced_flow(game).values()) for e in eq.equilibria}
        assert got == {f for f, _ in _bruteforce_equilibrium_flows(game)}
        assert eq.optimum.cost == _bruteforce_optimum_cost(game)
        result = best_response_atomic(game, CFG)
        assert result.converged and isinstance(result.cost, float)

    def test_tables_past_the_row_cap_are_evaluated(self):
        # One unit user and one of 10^9 units: the tables would need 2 * 10^9 rows.
        game = Game({"u": poly(1, 0), "l": poly(2, 1)},
                    [Group("od", (("u",), ("l",)), (Fraction(1), Fraction(10**9)))])
        assert game.is_rational and not _takes_lattice(game, reads=10**9)
        eq = enumerate_atomic_equilibria(game, CFG)
        got = {tuple(e.flow.induced_flow(game).values()) for e in eq.equilibria}
        assert got == {f for f, _ in _bruteforce_equilibrium_flows(game)}
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
        moments = expected_arc_flow_and_variance(game, profile)
        for aid in game.arc_ids:
            dist = solvers.arc_flow_distribution(game, profile, aid)
            assert sum(dist.values()) == 1
            mean = sum(p * v for v, p in dist.items())
            variance = sum(p * (v - mean) ** 2 for v, p in dist.items())
            assert moments[aid] == (mean, variance)


ASSETS = ("parallel_affine_offset.json", "parallel_linear_double.json",
          "parallel_quadratic_constant.json", "two_commodity_mixed_degree.json")


def shared_arc_two_path_games(count: int = 60, seed: int = 4242) -> list:
    """Seeded games of one to three groups with at most two paths each, drawn
    from one small arc set so that groups share arcs; coefficients and
    demands mix Fractions and floats."""
    rng = random.Random(seed)

    def number(low, high):
        if rng.random() < 0.5:
            return Fraction(rng.randint(low * 4, high * 4), 4)
        return rng.uniform(low, high)

    games = []
    while len(games) < count:
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
            games.append(Game(arcs, groups))
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
        from poakit.solvers import expected_path_costs
        game = quadratic_constant_game()
        result = solve_mixed_ne_small(game, CFG)
        a = float(result.flow.probabilities[0][0][0])
        exact = float(expected_path_costs(game, result.flow)[(0, 0)])
        n = 400_000
        draws = sample_uniforms(17, 0, n, 2)
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
        games = [load_asset(name) for name in ASSETS]
        games += [load_game(TWO_ARC_DIFFERENCE_GAME), *shared_arc_two_path_games()]
        digest = hashlib.sha256()
        for game in games:
            result = solve_mixed_ne_small(game, CFG)
            digest.update(repr((result.flow.probabilities, result.residual, result.cost,
                                result.iterations)).encode())
        assert digest.hexdigest() == \
            "999b26392fe195b7ea9d5edf57b69d038ed8f9d29ab502531750f5fef3897b1e"

    def test_one_exact_pass_per_profile(self, monkeypatch):
        # Three users on a constant arc against x + 2: the pure equilibrium
        # (all on the constant arc) also meets the mixed predicate.
        game = parallel_game([(1,), (1, 2)], [1, 1, 1])
        equilibria = enumerate_atomic_equilibria(game, CFG)
        passes = []
        exact = solvers.expected_arc_statistics
        monkeypatch.setattr(solvers, "expected_arc_statistics",
                            lambda *args: passes.append(1) or exact(*args))
        mixed_ne = solve_mixed_ne_small(game, CFG)
        assert len(passes) == 1  # the solved profile's residual and cost
        passes.clear()
        _, certified, _ = mixed_poa_small(game, CFG, equilibria, mixed_ne)
        assert not certified and len(passes) == len(equilibria.equilibria) == 1
        # Its expected cost is read too, from the same pass.
        profile = equilibria.equilibria[0].flow.as_mixed(game)
        assert mixed_ne_residual(game, profile) <= CFG.tolerance


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
                mixed_ok = mixed_ne_residual(game, profile.as_mixed(game)) <= 1e-12
                assert wardrop_ok == mixed_ok

    def test_optimum_cost_ordering_and_mixed_optimum(self):
        # Atomic optima cannot beat splittable optima, and the expected cost
        # over the atomic states is minimized by a degenerate profile.
        for game in [quadratic_constant_game(), affine_offset_game(),
                     linear_double_game(), two_commodity_game(Fraction(1), Fraction(2))]:
            so_at = solve_atomic_so(game, CFG)
            so_nat = solve_nonatomic_so(game, CFG)
            assert float(so_at.cost) >= float(so_nat.cost) - CFG.tolerance * (1 + float(so_at.cost))
            degenerate = so_at.flow.as_mixed(game)
            assert float(expected_total_cost(game, degenerate)) == pytest.approx(
                float(so_at.cost), rel=1e-12)
            # any strictly mixed profile cannot do better than the atomic optimum
            uniform = MixedProfile.uniform(game)
            assert float(expected_total_cost(game, uniform)) >= float(so_at.cost) - 1e-12


def _random_feasible(game, rng):
    values = []
    for g in game.groups:
        weights = [rng.random() for _ in range(g.n_paths)]
        total = sum(weights)
        values.extend(w / total * float(g.total_demand) for w in weights)
    return PathFlow(game, values)
