"""Domain types, document loading, and deterministic cost evaluation."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poakit import (
    AtomicProfile,
    CostPolynomial,
    Game,
    GameSchemaError,
    Group,
    MixedProfile,
    PathFlow,
    draw_atomic_profile,
    expected_arc_flow_and_variance,
    load_game,
)
from poakit.game import dump_game, sample_uniforms

from conftest import (
    affine_offset_game,
    asset_text,
    linear_double_game,
    poly,
    quadratic_constant_game,
    two_commodity_game,
)


class TestCostPolynomial:
    def test_horner_exact(self):
        p = poly(2, 3, 1)  # 2x^2 + 3x + 1
        assert p.value(Fraction(1, 2)) == Fraction(3)
        assert p.value(0) == 1

    def test_monotone_nonnegative_on_grid(self):
        p = poly(1, 0, 2)
        xs = [Fraction(i, 7) for i in range(50)]
        vals = [p.value(x) for x in xs]
        assert all(v >= 0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(GameSchemaError):
            CostPolynomial((Fraction(1), Fraction(-1)))

    def test_marginal_and_integral(self):
        p = poly(1, 0)  # x
        assert p.marginal().value(3) == 6  # x + x = 2x
        assert p.integral_value(Fraction(2)) == 2

    def test_derivative(self):
        p = poly(1, 0, 0)  # x^2
        assert p.derivative().value(Fraction(3)) == 6


class TestLoadGame:
    def test_example_document(self):
        game = load_game(asset_text("parallel_quadratic_constant.json"))
        assert game.total_demand == 4
        assert game.d_max == 2
        assert game.arcs["u"].degree == 2
        assert game.is_rational

    def test_minimal_game(self):
        game = load_game(json.dumps({
            "arcs": [{"id": "a", "coeffs": [1, 0]}],
            "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": 1}]}],
        }))
        assert game.total_demand == 1

    def test_group_lookup_by_id(self):
        game = two_commodity_game(Fraction(1), Fraction(1))
        assert game.group_index("od2") == 1
        with pytest.raises(GameSchemaError):
            game.group_index("nope")

    def test_cross_group_path_reuse_rejected(self):
        doc = {
            "arcs": [{"id": "u", "coeffs": [1, 0]}, {"id": "l", "coeffs": [2]}],
            "groups": [
                {"id": "g1", "paths": [["u"], ["l"]], "users": [{"demand": 1}]},
                {"id": "g2", "paths": [["u"]], "users": [{"demand": 1}]},
            ],
        }
        with pytest.raises(GameSchemaError) as err:
            load_game(doc)
        assert "disjointness violated" in str(err.value)
        assert "groups[1].paths[0]" in str(err.value)

    def test_nonpositive_demand_rejected(self):
        doc = {
            "arcs": [{"id": "a", "coeffs": [1, 0]}],
            "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": 0}]}],
        }
        with pytest.raises(GameSchemaError) as err:
            load_game(doc)
        assert "groups[0].users[0].demand" in str(err.value)

    def test_zero_leading_coefficient_rejected(self):
        doc = {
            "arcs": [{"id": "a", "coeffs": [0, 1]}],
            "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": 1}]}],
        }
        with pytest.raises(GameSchemaError) as err:
            load_game(doc)
        assert "coeffs[0]" in str(err.value)

    def test_unknown_arc_rejected(self):
        doc = {
            "arcs": [{"id": "a", "coeffs": [1, 0]}],
            "groups": [{"id": "g", "paths": [["zz"]], "users": [{"demand": 1}]}],
        }
        with pytest.raises(GameSchemaError) as err:
            load_game(doc)
        assert "unknown arc id" in str(err.value)

    def test_rational_strings(self):
        doc = {
            "arcs": [{"id": "a", "coeffs": ["3/2", "1/4"]}],
            "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": "2/3"}]}],
        }
        game = load_game(doc)
        assert game.arcs["a"].coefficients == (Fraction(3, 2), Fraction(1, 4))
        assert game.total_demand == Fraction(2, 3)

    def test_arcs_is_one_read_only_view(self):
        game = two_commodity_game(1, 2)
        assert game.arcs is game.arcs
        with pytest.raises(TypeError):
            game.arcs["s11"] = poly(1)
        rebuilt = Game(game.arcs, game.groups)
        assert dump_game(rebuilt) == dump_game(game)


class TestFlowsAndCosts:
    def test_arc_flow_equilibrium_point(self):
        game = quadratic_constant_game()
        root2 = math.sqrt(2)
        flow = PathFlow(game, [root2, 4 - root2])
        fa = game.arc_flow(flow)
        assert fa["u"] == pytest.approx(root2)
        assert fa["l"] == pytest.approx(4 - root2)

    def test_arc_flow_zero(self):
        game = quadratic_constant_game()
        fa = game.arc_flow(PathFlow(game, [0, 0]))
        assert set(fa.values()) == {0}

    def test_arc_flow_shared_arc_adds(self):
        game = Game({"s": poly(1, 0), "t": poly(1, 0), "w": poly(1, 0)},
                    [Group("g", (("s", "w"), ("t", "w")), (Fraction(3),))])
        flow = PathFlow(game, [1, 2])
        assert game.arc_flow(flow)["w"] == 3

    def test_total_cost_affine_offset_optimum(self):
        game = affine_offset_game()
        flow = PathFlow(game, [Fraction(3, 4), Fraction(1, 4)])
        assert game.total_cost(flow) == Fraction(7, 8)

    def test_total_cost_both_on_upper(self):
        game = linear_double_game()
        flow = PathFlow(game, [Fraction(2), Fraction(0)])
        assert game.total_cost(flow) == 4

    def test_cached_total_demand_leaves_equality(self):
        group = Group("g", (("a",),), (Fraction(1, 3), Fraction(2, 3)))
        assert group.total_demand == 1
        twin = Group("g", (("a",),), (Fraction(1, 3), Fraction(2, 3)))
        assert group == twin and hash(group) == hash(twin)

    def test_total_cost_zero_flow(self):
        game = linear_double_game()
        assert game.total_cost(PathFlow(game, [0, 0])) == 0

    def test_path_cost_at_equilibrium(self):
        game = quadratic_constant_game()
        root2 = math.sqrt(2)
        flow = PathFlow(game, [root2, 4 - root2])
        assert game.path_cost(flow, 0, 0) == pytest.approx(2.0)
        assert game.path_cost(flow, 0, 1) == pytest.approx(2.0)

    def test_path_cost_constant_arc_under_empty_flow(self):
        game = quadratic_constant_game()
        flow = PathFlow(game, [0, 0])
        assert game.path_cost(flow, 0, 1) == 2

    def test_path_cost_two_arc_additivity(self):
        game = Game({"x": poly(1, 0), "y": poly(1, 0), "z": poly(1)},
                    [Group("g", (("x", "y"), ("z",)), (Fraction(1),))])
        flow = PathFlow(game, [1, 0])
        assert game.path_cost(flow, 0, 0) == 2


class TestMixedExpectations:
    def test_symmetric_profile_moments(self):
        game = quadratic_constant_game()
        a = (math.sqrt(2) - 1) / 2
        profile = MixedProfile((((a, 1 - a), (a, 1 - a)),))
        stats = expected_arc_flow_and_variance(game, profile)
        mean, var = stats["u"]
        assert mean == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-12)
        assert var == pytest.approx(8 * a * (1 - a), abs=1e-12)

    def test_monte_carlo_cross_check(self):
        game = quadratic_constant_game()
        a = (math.sqrt(2) - 1) / 2
        profile = MixedProfile((((a, 1 - a), (a, 1 - a)),))
        mean, var = expected_arc_flow_and_variance(game, profile)["u"]
        n = 200_000
        draws = sample_uniforms(9, 0, n, 2)
        flows = 2.0 * (draws[:, 0] < a) + 2.0 * (draws[:, 1] < a)
        se = math.sqrt(var / n)
        assert abs(flows.mean() - mean) <= 3 * se

    def test_degenerate_profile_zero_variance(self):
        game = quadratic_constant_game()
        profile = AtomicProfile(((0, 0),)).as_mixed(game)
        stats = expected_arc_flow_and_variance(game, profile)
        assert all(var == 0 for _, var in stats.values())

    def test_single_user_bernoulli(self):
        game = Game({"u": poly(1, 0), "l": poly(1)},
                    [Group("g", (("u",), ("l",)), (Fraction(2),))])
        profile = MixedProfile((((Fraction(1, 2), Fraction(1, 2)),),))
        mean, var = expected_arc_flow_and_variance(game, profile)["u"]
        assert mean == 1
        assert var == 1

    def test_probability_rows_validated(self):
        game = quadratic_constant_game()
        with pytest.raises(ValueError):
            MixedProfile((((0.5, 0.6), (0.5, 0.5)),)).validate(game)


@st.composite
def feasible_flow(draw, game):
    values = []
    for g in game.groups:
        weights = [draw(st.integers(min_value=0, max_value=20)) for _ in range(g.n_paths)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        values.extend(Fraction(w, total) * g.total_demand for w in weights)
    return PathFlow(game, values)


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cost_identity(self, data):
        game = two_commodity_game(Fraction(2), Fraction(1))
        flow = data.draw(feasible_flow(game))
        arc_costs = game.arc_cost_map(flow)
        by_paths = sum(flow.value(gi, pi) * game.path_cost(flow, gi, pi, arc_costs)
                       for gi, pi in game.path_keys)
        by_arcs = game.total_cost(flow)
        assert abs(float(by_paths - by_arcs)) <= 1e-10 * (1 + abs(float(by_arcs)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_flow_conservation(self, data):
        game = two_commodity_game(Fraction(2), Fraction(1))
        flow = data.draw(feasible_flow(game))
        for gi, g in enumerate(game.groups):
            assert sum(flow.value(gi, pi) for pi in range(g.n_paths)) == g.total_demand

    def test_atomic_arc_flows_within_total_demand(self):
        game = two_commodity_game(Fraction(2), Fraction(3))
        total = game.total_demand
        from itertools import product
        for picks in product(range(2), repeat=4):
            profile = AtomicProfile((picks[:2], picks[2:]))
            fa = game.arc_flow(profile.induced_flow(game))
            assert all(0 <= v <= total for v in fa.values())

    def test_mean_path_flow_formula_and_monte_carlo(self):
        game = quadratic_constant_game()
        profile = MixedProfile((((0.3, 0.7), (0.6, 0.4)),))
        expected = profile.expected_flow(game)
        # formula value: sum of demand * probability
        assert float(expected.value(0, 0)) == pytest.approx(2 * 0.3 + 2 * 0.6)
        n = 120_000
        draws = sample_uniforms(3, 0, n, 2)
        f_u = 2.0 * (draws[:, 0] < 0.3) + 2.0 * (draws[:, 1] < 0.6)
        var = 4 * 0.3 * 0.7 + 4 * 0.6 * 0.4
        se = math.sqrt(var / n)
        assert abs(f_u.mean() - float(expected.value(0, 0))) <= 3 * se

    def test_jensen_direction_on_sampled_profiles(self):
        game = two_commodity_game(Fraction(2), Fraction(1))
        rng = np.random.default_rng(5)
        for _ in range(5):
            rows = []
            for g in game.groups:
                user_rows = []
                for _ in range(g.n_users):
                    x = rng.uniform(0.05, 0.95)
                    user_rows.append((x, 1 - x))
                rows.append(tuple(user_rows))
            profile = MixedProfile(tuple(rows))
            n = 60_000
            draws = sample_uniforms(11, 0, n, game.n_users)
            for ai, aid in enumerate(game.arc_ids):
                mean_flow = 0.0
                flows = np.zeros(n)
                slot = 0
                for gi, g in enumerate(game.groups):
                    for ui, d in enumerate(g.demands):
                        q = float(sum(profile.probabilities[gi][ui][pi]
                                      for pi in range(g.n_paths) if aid in g.paths[pi]))
                        flows += float(d) * (draws[:, slot] < q)
                        mean_flow += float(d) * q
                        slot += 1
                coeffs = [float(c) for c in game.arcs[aid].coefficients]
                costs = np.polyval(coeffs, flows)
                se = costs.std(ddof=1) / math.sqrt(n)
                assert costs.mean() >= np.polyval(coeffs, mean_flow) - 3 * se

    def test_cost_identity_across_instance_pool(self, instance_pool):
        # per-path and per-arc accounting agree on 200 random feasible
        # flows of every pooled instance (paths may share arcs freely)
        import random
        rng = random.Random(31)
        for game in instance_pool[:20]:
            for _ in range(200):
                values = []
                for g in game.groups:
                    weights = [rng.random() for _ in range(g.n_paths)]
                    total = sum(weights)
                    values.extend(w / total * float(g.total_demand) for w in weights)
                flow = PathFlow(game, values)
                arc_costs = game.arc_cost_map(flow)
                by_paths = sum(flow.value(gi, pi) * game.path_cost(flow, gi, pi, arc_costs)
                               for gi, pi in game.path_keys)
                by_arcs = game.total_cost(flow)
                assert abs(float(by_paths - by_arcs)) <= 1e-10 * (1 + abs(float(by_arcs)))

    def test_draw_atomic_profile_in_state_space(self):
        game = quadratic_constant_game()
        profile = MixedProfile((((0.25, 0.75), (0.5, 0.5)),))
        seen = set()
        for i in range(64):
            flow = draw_atomic_profile(game, profile, 13, i).induced_flow(game)
            seen.add(tuple(flow.values()))
        assert seen <= {(0, 4), (2, 2), (4, 0)}
        assert len(seen) > 1
