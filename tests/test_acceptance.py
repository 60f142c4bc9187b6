"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from poakit import (
    BoundInputs,
    SolverConfig,
    arc_deviation_probability_bound,
    atomic_ne_approximation_bound,
    atomic_poa_upper_bound,
    enumerate_atomic_equilibria,
    epsilon_ne_residual,
    expected_flow_approximation,
    nonatomic_poa_upper_bound,
    random_poa_probability_bound,
    sample_random_poa,
    scale_game,
    solve_atomic_so,
    solve_mixed_ne_small,
    solve_nonatomic_ne,
    solve_nonatomic_so,
    weighted_bernoulli_tail_bound,
    TailVariant,
)
from poakit.game import PathFlow
from poakit.solvers import arc_flow_distribution, expected_arc_statistics, expected_path_costs
from poakit.runner import ExperimentConfig, run_sample, run_sweep

from conftest import (
    affine_offset_game,
    linear_double_game,
    quadratic_constant_game,
    standard_error,
    two_commodity_game,
    uniform_profile,
)
from test_bounds import exact_tail

CFG = SolverConfig()


def verdict(criterion: str, detail: str):
    print(f"[{criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def pool_solutions(instance_pool):
    solutions = []
    for game in instance_pool:
        eq = enumerate_atomic_equilibria(game, CFG)
        so_at = solve_atomic_so(game, CFG)
        ne = solve_nonatomic_ne(game, CFG)
        so_nat = solve_nonatomic_so(game, CFG)
        solutions.append({
            "game": game,
            "eq": eq,
            "so_at": so_at,
            "atomic_poa": eq.worst.cost / so_at.cost,
            "nonatomic_poa": float(ne.cost) / float(so_nat.cost),
            "inputs": BoundInputs.from_game(game),
        })
    return solutions


def test_criterion_1_affine_offset_exact_ratio():
    for n in (1, 2, 5):
        t0 = time.perf_counter()
        game = affine_offset_game(n)
        eq = enumerate_atomic_equilibria(game, CFG)
        so = solve_atomic_so(game, CFG)
        value = eq.worst.cost / so.cost
        elapsed = time.perf_counter() - t0
        assert eq.optimum.exact and so.exact
        assert value == Fraction(8, 7)
        assert elapsed < 1.0
    verdict("criterion 1", "atomic ratio exactly 8/7 at n in {1, 2, 5}, each under 1s")


def test_criterion_2_linear_double_exact_ratio():
    for n in (1, 2):
        game = linear_double_game(n)
        eq = enumerate_atomic_equilibria(game, CFG)
        so = solve_atomic_so(game, CFG)
        assert eq.worst.cost == 4 * n * n
        assert so.cost == 3 * n * n
        assert eq.worst.cost / so.cost == Fraction(4, 3)
    verdict("criterion 2", "worst equilibrium 4n^2, optimum 3n^2, ratio exactly 4/3")


def test_criterion_3_quadratic_constant_full_reproduction():
    game = quadratic_constant_game()
    ne = solve_nonatomic_ne(game, CFG)
    flow = [float(v) for v in ne.flow.values()]
    assert abs(flow[0] - math.sqrt(2)) <= 1e-7
    assert abs(flow[1] - (4 - math.sqrt(2))) <= 1e-7

    so = solve_nonatomic_so(game, CFG)
    rho_nat = float(ne.cost) / float(so.cost)
    assert abs(rho_nat - 18 / (18 - math.sqrt(6))) <= 1e-6

    eq = enumerate_atomic_equilibria(game, CFG)
    assert len(eq.equilibria) == 1
    assert tuple(eq.worst.flow.induced_flow(game).values()) == (0, 4)
    so_at = solve_atomic_so(game, CFG)
    assert eq.worst.cost / so_at.cost == 1

    mixed = solve_mixed_ne_small(game, CFG)
    x = float(mixed.flow.probabilities[0][0][0])
    assert abs(x - (math.sqrt(2) - 1) / 2) <= 1e-8
    # indifference condition: both paths' expected costs agree to 1e-9
    costs = expected_path_costs(game, expected_arc_statistics(game, mixed.flow))
    assert abs(float(costs[(0, 0)] - costs[(0, 1)])) <= 1e-9

    from poakit import mixed_poa_small
    value, certified, _ = mixed_poa_small(game, CFG)
    assert certified
    assert abs(value - (5 - 2.5 * math.sqrt(2))) <= 1e-8
    assert value >= 1.25
    verdict("criterion 3", f"flow, ratios, and mixed profile all at frozen values "
                           f"(rho_nat={rho_nat:.6f}, mixed={value:.6f})")


def test_criterion_4_two_commodity_limit():
    t0 = time.perf_counter()
    values = []
    for n in (100, 1000, 10000):
        root = Fraction(math.isqrt(n)) if math.isqrt(n) ** 2 == n else math.sqrt(n)
        game = two_commodity_game(root, root)
        eq = enumerate_atomic_equilibria(game, CFG)
        so = solve_atomic_so(game, CFG)
        values.append(float(eq.worst.cost) / float(so.cost))
    elapsed = time.perf_counter() - t0
    target = 16.0 / 9.0
    assert values[0] < values[1] < values[2] <= target + 1e-9
    assert abs(values[-1] - target) <= 0.002
    assert elapsed < 30.0
    verdict("criterion 4", f"ratio climbs {values[0]:.6f} -> {values[2]:.6f} "
                           f"toward 16/9 in {elapsed:.2f}s")


def test_criterion_5_bound_dominance(pool_solutions):
    t0 = time.perf_counter()
    assert len(pool_solutions) >= 50
    for sol in pool_solutions:
        inputs = sol["inputs"]
        assert float(sol["atomic_poa"]) >= 1 - 1e-9
        assert sol["nonatomic_poa"] >= 1 - 1e-9
        assert float(sol["atomic_poa"]) <= atomic_poa_upper_bound(inputs) + 1e-9
        assert sol["nonatomic_poa"] <= nonatomic_poa_upper_bound(inputs) + 1e-9
        # optimum ordering: unsplittable optima can never beat splittable ones
        so_nat = solve_nonatomic_so(sol["game"], CFG)
        assert float(sol["so_at"].cost) >= float(so_nat.cost) - 1e-9 * (1 + float(so_nat.cost))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    verdict("criterion 5", f"{len(pool_solutions)} instances, 100% below both "
                           f"closed-form bounds in {elapsed:.1f}s")


def test_criterion_6_scaling_invariance(pool_solutions):
    checked = 0
    for sol in pool_solutions:
        game = sol["game"]
        degree = game.degrees[0]
        for factor in (game.total_demand ** degree, Fraction(1), Fraction(7, 3)):
            scaled = scale_game(game, factor)
            eq = enumerate_atomic_equilibria(scaled, CFG)
            so = solve_atomic_so(scaled, CFG)
            assert eq.worst.cost / so.cost == sol["atomic_poa"]
            ne = solve_nonatomic_ne(scaled, CFG)
            so_nat = solve_nonatomic_so(scaled, CFG)
            assert abs(float(ne.cost) / float(so_nat.cost) - sol["nonatomic_poa"]) <= 1e-8
            checked += 1
    verdict("criterion 6", f"atomic ratio exact-equal and splittable ratio within 1e-8 "
                           f"over {checked} scaled instances")


def test_criterion_7_epsilon_conformance(pool_solutions):
    residual_checks = 0
    gap_checks = 0
    mixed_checks = 0
    for sol in pool_solutions:
        game = sol["game"]
        inputs = sol["inputs"]
        t = game.total_demand
        scaled = scale_game(game, t ** game.degrees[0])
        eps, gap_bound = atomic_ne_approximation_bound(inputs)
        scaled_ne = solve_nonatomic_ne(scaled, CFG)
        scaled_ne_costs = scaled.arc_cost_map(scaled_ne.flow)
        for entry in enumerate_atomic_equilibria(scaled, CFG).equilibria:
            flow = entry.flow.induced_flow(scaled)
            assert float(epsilon_ne_residual(scaled, flow)) <= eps + 1e-9
            residual_checks += 1
            arc_costs = scaled.arc_cost_map(flow)
            for aid in scaled.arc_ids:
                assert abs(float(arc_costs[aid] - scaled_ne_costs[aid])) <= gap_bound + 1e-7
                gap_checks += 1
        if all(g.n_paths <= 2 for g in game.groups) and game.n_users <= 12:
            mixed = solve_mixed_ne_small(game, CFG)
            if not mixed.converged:
                continue
            approx = expected_flow_approximation(inputs, 1.0 / 3.0)
            expected = mixed.flow.expected_flow(game)
            scaled_expected = PathFlow(scaled, [float(v) / float(t)
                                                for v in expected.values()])
            residual = float(epsilon_ne_residual(scaled, scaled_expected))
            assert residual <= approx.eps_expected + 1e-9
            mixed_checks += 1
    assert residual_checks > 50 and mixed_checks > 10
    verdict("criterion 7", f"{residual_checks} equilibrium residuals, {gap_checks} arc "
                           f"gaps, {mixed_checks} expected-flow residuals all within bounds")


def test_criterion_8_concentration_dominance(pool_solutions):
    rng = random.Random(808)
    # exact weighted-Bernoulli tails against the closed-form inequalities
    for _ in range(200):
        n = rng.randint(1, 20)
        weights = [rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
                   for _ in range(n)]
        probs = [Fraction(rng.randint(1, 63), 64) for _ in range(n)]
        mean = sum(w * q for w, q in zip(weights, probs))
        d_up = rng.choice([0.3, 0.7, 1.3])
        up = weighted_bernoulli_tail_bound([float(w) for w in weights],
                                           [float(q) for q in probs], d_up,
                                           TailVariant.UPPER)
        exact_up = exact_tail(weights, probs,
                              (1 + Fraction(d_up).limit_denominator()) * mean)
        assert exact_up <= up.value + 1e-12
        d_lo = rng.choice([0.3, 0.6, 0.9])
        low = weighted_bernoulli_tail_bound([float(w) for w in weights],
                                            [float(q) for q in probs], d_lo,
                                            TailVariant.LOWER)
        exact_lo = exact_tail(weights, probs,
                              (1 - Fraction(d_lo).limit_denominator()) * mean,
                              upper=False)
        assert exact_lo <= low.value + 1e-12

    # exact arc-deviation probabilities against the variance bound
    arc_checks = 0
    for sol in pool_solutions[:12]:
        game = sol["game"]
        if game.n_users > 12:
            continue
        t = game.total_demand
        scaled = scale_game(game, t ** game.degrees[0])
        profiles = [uniform_profile(scaled)]
        if all(g.n_paths <= 2 for g in game.groups):
            mixed = solve_mixed_ne_small(scaled, CFG)
            profiles.append(mixed.flow)
        for profile in profiles:
            for delta in (0.1, 0.25, 0.4):
                thresh = (float(game.d_max) / float(t)) ** delta
                ceiling = arc_deviation_probability_bound(sol["inputs"], delta)
                for aid in scaled.arc_ids:
                    dist = arc_flow_distribution(scaled, profile, aid)
                    mean = sum(v * p for v, p in dist.items())
                    exact = sum(p for v, p in dist.items()
                                if abs(float(v - mean)) > thresh)
                    assert float(exact) <= ceiling + 1e-12
                    arc_checks += 1
    assert arc_checks >= 100
    verdict("criterion 8", f"200 tail configurations and {arc_checks} arc-deviation "
                           f"probabilities all dominated")


def test_criterion_9_random_ratio_probability():
    game = quadratic_constant_game()
    mixed = solve_mixed_ne_small(game, CFG)
    dist = sample_random_poa(game, mixed.flow, 1_000_000, SolverConfig(rng_seed=7))

    ne = solve_nonatomic_ne(game, CFG)
    so = solve_nonatomic_so(game, CFG)
    bound = random_poa_probability_bound(game, 1.0 / 3.0,
                                         float(ne.cost) / float(so.cost), float(so.cost))
    n = dist.n_samples
    assert n == 1_000_000
    exceed = int(dist.counts[dist.values > bound.threshold].sum()) / n
    slack = 3.0 * math.sqrt(bound.p_delta * (1 - bound.p_delta) / n)
    assert exceed <= bound.p_delta + slack

    want = 5 - 2.5 * math.sqrt(2)
    se = standard_error(dist)
    assert abs(dist.empirical_mean - want) <= 3 * se
    verdict("criterion 9", f"exceedance {exceed:.2e} <= {bound.p_delta:.4f}, "
                           f"mean {dist.empirical_mean:.6f} within 3se of {want:.6f}")


def test_criterion_10_byte_identical_outputs(tmp_path):
    family = {
        "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [2, 0]}],
        "groups": [{"id": "od", "paths": [["u"], ["l"]], "users": [{"demand": 1}]}],
        "demand_laws": {"od": {"c": 1, "gamma": 1, "user_demand": 1}},
    }
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(family), encoding="utf-8")
    sweeps = []
    for run in ("a", "b"):
        out = tmp_path / f"sweep-{run}"
        run_sweep(ExperimentConfig(family_path=str(fam_path),
                                   grid=[4, 16, 64], seed=21, out_dir=str(out)))
        sweeps.append((out / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]

    from poakit.runner import asset_path
    samples = []
    for run in ("a", "b"):
        out = tmp_path / f"sample-{run}"
        run_sample(ExperimentConfig(
            game_path=str(asset_path("parallel_quadratic_constant.json")),
            n_samples=30_000, seed=13, out_dir=str(out)))
        samples.append((out / "distribution.csv").read_bytes())
    assert samples[0] == samples[1]
    verdict("criterion 10", "sweep and sample CSVs byte-identical across reruns")
