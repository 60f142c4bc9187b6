"""Scaled games, closed-form bounds, and tail inequalities."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poakit import (
    BoundInputs,
    PathFlow,
    SolverConfig,
    TailVariant,
    arc_deviation_probability_bound,
    atomic_ne_approximation_bound,
    atomic_poa_upper_bound,
    enumerate_atomic_equilibria,
    expected_flow_approximation,
    mixed_ne_residual,
    nonatomic_poa_upper_bound,
    random_poa_probability_bound,
    scale_game,
    solve_atomic_so,
    solve_mixed_ne_small,
    solve_nonatomic_ne,
    solve_nonatomic_so,
    weighted_bernoulli_tail_bound,
)

from conftest import (
    linear_double_game,
    parallel_game,
    quadratic_constant_game,
)

CFG = SolverConfig()

LINEAR_DOUBLE_INPUTS = BoundInputs(degree=1, eta_max=2.0, eta0_min=1.0, n_arcs=2,
                                   n_paths=2, total_demand=2.0, d_max=1.0)


class TestScaleGame:
    def test_linear_double_form_preserved(self):
        game = linear_double_game()  # T = 2
        scaled = scale_game(game, Fraction(2))
        assert scaled.arcs["u"].coefficients == (Fraction(1), Fraction(0))
        assert scaled.arcs["l"].coefficients == (Fraction(2), Fraction(0))
        assert scaled.total_demand == 1

    def test_identity_when_unit(self):
        game = parallel_game([(1, 0)], [1])
        scaled = scale_game(game, 1)
        assert scaled.arcs["a0"].coefficients == game.arcs["a0"].coefficients

    def test_quadratic_constant_with_square_factor(self):
        game = quadratic_constant_game()
        scaled = scale_game(game, Fraction(16))
        assert scaled.arcs["u"].coefficients == (Fraction(1), Fraction(0), Fraction(0))
        assert scaled.arcs["l"].coefficients == (Fraction(1, 8),)

    def test_evaluation_identity(self):
        game = quadratic_constant_game()
        for g in (Fraction(16), Fraction(7, 3), Fraction(1)):
            scaled = scale_game(game, g)
            t = game.total_demand
            for aid in game.arc_ids:
                for i in range(11):
                    x = Fraction(i, 10)
                    assert scaled.arcs[aid].value(x) * g == game.arcs[aid].value(x * t)

    def test_total_cost_identity_on_random_flows(self):
        # C(f) = C(f/T, scaled) * g * T: the scaled flow is f/T and the
        # scaled per-unit costs are 1/g of the original at load f, so both
        # divisors must be undone.  (Ratios are blind to the extra T, which
        # is why every inefficiency ratio is scaling-invariant.)
        game = quadratic_constant_game()
        t = game.total_demand
        rng = random.Random(2)
        for g in (Fraction(16), Fraction(7, 3)):
            scaled = scale_game(game, g)
            for _ in range(50):
                w = Fraction(rng.randint(0, 100), 100)
                flow = PathFlow(game, [w * 4, (1 - w) * 4])
                down = PathFlow(scaled, [v / t for v in flow.values()])
                lhs = float(game.total_cost(flow))
                rhs = float(scaled.total_cost(down) * g * t)
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_game(quadratic_constant_game(), 0)


class TestBoundInputs:
    def test_kappa_and_accessors(self):
        bi = LINEAR_DOUBLE_INPUTS
        assert bi.kappa == 3.0
        assert bi.geometric_tail == 0.5
        assert bi.demand_ratio == 0.5

    def test_mixed_degrees_refused(self):
        with pytest.raises(ValueError):
            BoundInputs.from_game(quadratic_constant_game())

    def test_from_game(self):
        bi = BoundInputs.from_game(linear_double_game())
        assert (bi.degree, bi.eta_max, bi.eta0_min) == (1, 2.0, 1.0)
        assert (bi.n_arcs, bi.n_paths) == (2, 2)


class TestClosedFormBounds:
    def test_atomic_bound_frozen_value(self):
        assert atomic_poa_upper_bound(LINEAR_DOUBLE_INPUTS) == pytest.approx(
            15 + 12 * math.sqrt(6), rel=1e-12)

    def test_atomic_bound_constant_costs(self):
        bi = BoundInputs(degree=0, eta_max=2, eta0_min=2, n_arcs=2, n_paths=2,
                         total_demand=4, d_max=2)
        assert atomic_poa_upper_bound(bi) == 1.0

    def test_atomic_bound_vanishing_user_share(self):
        bi = BoundInputs(degree=1, eta_max=2, eta0_min=1, n_arcs=2, n_paths=2,
                         total_demand=2, d_max=1e-30)
        assert atomic_poa_upper_bound(bi) == pytest.approx(3.0, abs=1e-9)

    def test_nonatomic_bound_values(self):
        assert nonatomic_poa_upper_bound(LINEAR_DOUBLE_INPUTS) == pytest.approx(3.0)
        bi0 = BoundInputs(degree=0, eta_max=5, eta0_min=5, n_arcs=1, n_paths=1,
                          total_demand=1, d_max=1)
        assert nonatomic_poa_upper_bound(bi0) == 1.0
        big_t = BoundInputs(degree=1, eta_max=2, eta0_min=1, n_arcs=2, n_paths=2,
                            total_demand=1e6, d_max=1)
        assert nonatomic_poa_upper_bound(big_t) == pytest.approx(1 + 4e-6, rel=1e-9)

    def test_approximation_bound_values(self):
        eps, gap = atomic_ne_approximation_bound(LINEAR_DOUBLE_INPUTS)
        assert eps == pytest.approx(6.0)
        assert gap == pytest.approx(3 * math.sqrt(6))
        affine = BoundInputs(degree=1, eta_max=1, eta0_min=1, n_arcs=2, n_paths=2,
                             total_demand=1, d_max=0.25)
        assert affine.kappa == 2.0
        assert atomic_ne_approximation_bound(affine)[0] == pytest.approx(2.0)
        tiny = BoundInputs(degree=1, eta_max=1, eta0_min=1, n_arcs=2, n_paths=2,
                           total_demand=1, d_max=1e-30)
        assert atomic_ne_approximation_bound(tiny)[0] == pytest.approx(0.0, abs=1e-25)

    def test_expected_flow_approximation_values(self):
        approx = expected_flow_approximation(LINEAR_DOUBLE_INPUTS, 1 / 3)
        assert approx.p_delta == pytest.approx(0.5 * 0.5 ** (1 / 3), rel=1e-12)
        assert not approx.expected_flow_is_equilibrium
        bi0 = BoundInputs(degree=0, eta_max=2, eta0_min=2, n_arcs=2, n_paths=2,
                          total_demand=4, d_max=2)
        assert expected_flow_approximation(bi0, 1 / 3).expected_flow_is_equilibrium
        small = BoundInputs(degree=1, eta_max=1, eta0_min=1, n_arcs=2, n_paths=2,
                            total_demand=1e6, d_max=1)
        assert expected_flow_approximation(small, 1 / 3).p_delta == pytest.approx(
            0.5 * 1e-2, rel=1e-9)
        with pytest.raises(ValueError):
            expected_flow_approximation(LINEAR_DOUBLE_INPUTS, 0.5)
        with pytest.raises(ValueError):
            expected_flow_approximation(LINEAR_DOUBLE_INPUTS, 0.0)

    def test_arc_deviation_bound_values(self):
        bi = BoundInputs(degree=1, eta_max=1, eta0_min=1, n_arcs=1, n_paths=2,
                         total_demand=4, d_max=1)
        assert arc_deviation_probability_bound(bi, 0.25) == pytest.approx(1 / 8)
        q = BoundInputs(degree=1, eta_max=1, eta0_min=1, n_arcs=1, n_paths=2,
                        total_demand=10, d_max=3)
        assert arc_deviation_probability_bound(q, 0.0) == pytest.approx(0.3 / 4)
        single = BoundInputs(degree=1, eta_max=1, eta0_min=1, n_arcs=1, n_paths=2,
                             total_demand=5, d_max=5)
        assert arc_deviation_probability_bound(single, 0.3) == pytest.approx(0.25)


def exact_tail(weights, probs, threshold, upper=True):
    """Oracle: exact tail of a weighted Bernoulli sum by subset DP."""
    dist = {Fraction(0): Fraction(1)}
    for w, q in zip(weights, probs):
        q = Fraction(q).limit_denominator(10**6)
        new = {}
        for v, p in dist.items():
            new[v] = new.get(v, Fraction(0)) + p * (1 - q)
            nv = v + Fraction(w).limit_denominator(10**6)
            new[nv] = new.get(nv, Fraction(0)) + p * q
        dist = new
    if upper:
        return float(sum(p for v, p in dist.items() if v >= threshold))
    return float(sum(p for v, p in dist.items() if v <= threshold))


class TestTailBounds:
    def test_upper_frozen_value(self):
        tb = weighted_bernoulli_tail_bound([1] * 10, [0.1] * 10, 1.0, TailVariant.UPPER)
        assert tb.value == pytest.approx(math.exp(-2 * (math.log(2) - 0.5)), rel=1e-12)
        assert not tb.asymptotic

    def test_upper_dominates_exact_binomial(self):
        tb = weighted_bernoulli_tail_bound([1] * 10, [0.1] * 10, 1.0, TailVariant.UPPER)
        exact = exact_tail([1] * 10, [Fraction(1, 10)] * 10, 2)
        assert exact == pytest.approx(0.2639010709, rel=1e-8)
        assert exact <= tb.value

    def test_upper_degenerates_to_one(self):
        tb = weighted_bernoulli_tail_bound([1] * 4, [0.5] * 4, 1e-9, TailVariant.UPPER)
        assert tb.value == pytest.approx(1.0, abs=1e-9)

    def test_lower_certain_sum_is_zero(self):
        tb = weighted_bernoulli_tail_bound([1, 2], [1.0, 1.0], 0.5, TailVariant.LOWER)
        assert tb.value == 0.0

    def test_fixed_threshold_variant(self):
        tb = weighted_bernoulli_tail_bound([0.5] * 10, [0.01] * 10, 1.0,
                                           TailVariant.UPPER_FIXED)
        assert tb.asymptotic
        assert 0 < tb.value < 1

    def test_shifted_variant_domain(self):
        with pytest.raises(ValueError):
            weighted_bernoulli_tail_bound([1] * 4, [0.5] * 4, 0.5,
                                          TailVariant.LOWER_SHIFTED, c=5.0)
        tb = weighted_bernoulli_tail_bound([1] * 4, [0.5] * 4, 0.5,
                                           TailVariant.LOWER_SHIFTED, c=1.0)
        assert tb.asymptotic and 0 < tb.value <= 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            weighted_bernoulli_tail_bound([1], [0.5], 0.0, TailVariant.UPPER)
        with pytest.raises(ValueError):
            weighted_bernoulli_tail_bound([1], [0.5], 1.0, TailVariant.LOWER)
        with pytest.raises(ValueError):
            weighted_bernoulli_tail_bound([1], [1.5], 0.5, TailVariant.UPPER)
        with pytest.raises(ValueError):
            weighted_bernoulli_tail_bound([0.5, 0.4], [0.5, 0.5], 1.0,
                                          TailVariant.UPPER_FIXED)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dominance_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        weights = data.draw(st.lists(st.sampled_from([Fraction(1, 2), 1, 2]),
                                     min_size=n, max_size=n))
        probs = data.draw(st.lists(
            st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                         max_denominator=20),
            min_size=n, max_size=n))
        delta = data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        mean = sum(w * q for w, q in zip(weights, probs))
        up = weighted_bernoulli_tail_bound([float(w) for w in weights],
                                            [float(q) for q in probs],
                                            delta, TailVariant.UPPER)
        assert exact_tail(weights, probs, (1 + Fraction(delta).limit_denominator()) * mean) \
            <= up.value + 1e-12
        if 0 < delta < 1:
            low = weighted_bernoulli_tail_bound([float(w) for w in weights],
                                                 [float(q) for q in probs],
                                                 delta, TailVariant.LOWER)
            assert exact_tail(weights, probs,
                              (1 - Fraction(delta).limit_denominator()) * mean,
                              upper=False) <= low.value + 1e-12


class TestScalingInvariance:
    @pytest.mark.parametrize("factor", ["power", 1, Fraction(7, 3)])
    def test_atomic_poa_invariant(self, factor):
        for game in [linear_double_game(), quadratic_constant_game()]:
            g = game.total_demand ** max(game.degrees) if factor == "power" else factor
            scaled = scale_game(game, g)
            base_eq = enumerate_atomic_equilibria(game, CFG)
            base_so = solve_atomic_so(game, CFG)
            scaled_eq = enumerate_atomic_equilibria(scaled, CFG)
            scaled_so = solve_atomic_so(scaled, CFG)
            assert base_eq.worst.cost / base_so.cost == scaled_eq.worst.cost / scaled_so.cost

    @pytest.mark.parametrize("factor", ["power", 1, Fraction(7, 3)])
    def test_nonatomic_poa_invariant(self, factor):
        for game in [linear_double_game(), quadratic_constant_game()]:
            g = game.total_demand ** max(game.degrees) if factor == "power" else factor
            scaled = scale_game(game, g)
            rho = (float(solve_nonatomic_ne(game, CFG).cost)
                   / float(solve_nonatomic_so(game, CFG).cost))
            rho_scaled = (float(solve_nonatomic_ne(scaled, CFG).cost)
                          / float(solve_nonatomic_so(scaled, CFG).cost))
            assert abs(rho - rho_scaled) <= 1e-8

    def test_equilibrium_bijection(self):
        game = linear_double_game()
        t = game.total_demand
        scaled = scale_game(game, Fraction(7, 3))
        base = {tuple(e.flow.induced_flow(game).values())
                for e in enumerate_atomic_equilibria(game, CFG).equilibria}
        image = {tuple(v / t for v in flow) for flow in base}
        scaled_set = {tuple(e.flow.induced_flow(scaled).values())
                      for e in enumerate_atomic_equilibria(scaled, CFG).equilibria}
        assert image == scaled_set

    def test_mixed_profile_carries_over(self):
        game = quadratic_constant_game()
        mixed = solve_mixed_ne_small(game, CFG)
        for g in (Fraction(16), Fraction(1), Fraction(7, 3)):
            scaled = scale_game(game, g)
            assert mixed_ne_residual(scaled, mixed.flow) <= CFG.tolerance


class TestComposedRandomBound:
    def test_threshold_and_probability_positive(self):
        game = quadratic_constant_game()
        ne = solve_nonatomic_ne(game, CFG)
        so = solve_nonatomic_so(game, CFG)
        bound = random_poa_probability_bound(game, 1 / 3, float(ne.cost) / float(so.cost),
                                             float(so.cost))
        assert bound.threshold > 1
        assert 0 < bound.p_delta == pytest.approx(0.5 * 0.5 ** (1 / 3), rel=1e-12)

    def test_threshold_decays_along_growing_demand(self):
        # Qualitative convergence: with fixed user demand and growing totals
        # the composed ceiling falls monotonically toward the splittable
        # ratio.  The rate is a slow sixth root, so only the shape is
        # asserted, not closeness to 1 at desk scale.
        thresholds = []
        for users in (4, 16, 64, 256):
            game = parallel_game([(1, 0), (2, 0)], [1] * users)
            ne = solve_nonatomic_ne(game, CFG)
            so = solve_nonatomic_so(game, CFG)
            bound = random_poa_probability_bound(
                game, 1 / 3, float(ne.cost) / float(so.cost), float(so.cost))
            thresholds.append(bound.threshold)
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] < 0.5 * thresholds[0]

    def test_delta_domain(self):
        game = quadratic_constant_game()
        with pytest.raises(ValueError):
            random_poa_probability_bound(game, 0.5, 1.2, 6.9)


class TestPinnedBits:
    def test_bound_columns_and_random_threshold(self, instance_pool):
        """sha256 of repr of every bound column, the random-ratio threshold and
        p_delta, the expected-flow pair and the per-arc deviation bound, over
        the four bundled assets and the instance pool."""
        from poakit.runner import DELTA, _bound_columns, load_asset

        assets = [load_asset(name) for name in (
            "parallel_quadratic_constant.json", "parallel_affine_offset.json",
            "parallel_linear_double.json", "two_commodity_mixed_degree.json")]
        digest = hashlib.sha256()
        for game in assets + instance_pool:
            random_bound = random_poa_probability_bound(game, DELTA, 1.25,
                                                        float(game.total_demand))
            outcome = [_bound_columns(game), random_bound.threshold, random_bound.p_delta]
            if len(set(game.degrees)) == 1:
                inputs = BoundInputs.from_game(game)
                approx = expected_flow_approximation(inputs, DELTA)
                outcome += [atomic_ne_approximation_bound(inputs), approx.eps_expected,
                            approx.p_delta, arc_deviation_probability_bound(inputs, DELTA)]
            digest.update(repr(outcome).encode())
        assert digest.hexdigest() == \
            "8c43de097f642547776349f9201211e7b15799f1e1671d277a90e5c927673139"
