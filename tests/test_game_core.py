"""Domain types, document loading, and deterministic cost evaluation."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    load_game,
)
from poakit.game import sample_uniforms

from conftest import (
    affine_offset_game,
    asset_text,
    cost_integral,
    dump_game,
    flow_moments,
    linear_double_game,
    parallel_game,
    point_mass_profile,
    poly,
    quadratic_constant_game,
    two_commodity_game,
)


class TestCostPolynomial:
    def test_horner_exact(self):
        p = poly(2, 3, 1)  # 2x^2 + 3x + 1
        assert p.value(Fraction(1, 2)) == Fraction(3)
        assert p.value(0) == 1

    def test_float_coefficients(self):
        p = CostPolynomial((Fraction(1, 3), Fraction(0), Fraction(7, 2)))
        assert p.float_coefficients == tuple(float(c) for c in p.coefficients)
        assert p.float_coefficients is p.float_coefficients  # converted once
        huge = CostPolynomial((Fraction(10**400, 3), Fraction(1)))
        for _ in range(2):
            with pytest.raises(OverflowError):
                huge.float_coefficients
        assert huge.value(Fraction(3)) == 10**400 + 1

    def test_value_is_the_solvers_horner(self):
        from poakit import solvers

        rng = random.Random(5)
        game = parallel_game([[Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
                              for _ in range(3)], [Fraction(1), Fraction(2)])
        for p in game.arcs.values():
            for x in (Fraction(0), Fraction(5, 7), Fraction(3)):
                assert p.value(x) == solvers._horner(p.coefficients, x)
            for x in (0.0, 0.3, 2.5):
                assert p.value(x) == solvers._horner(p.float_coefficients, x)

    def test_monotone_nonnegative_on_grid(self):
        p = poly(1, 0, 2)
        xs = [Fraction(i, 7) for i in range(50)]
        vals = [p.value(x) for x in xs]
        assert all(v >= 0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(GameSchemaError):
            CostPolynomial((Fraction(1), Fraction(-1)))

    def test_numbers_are_held_as_their_exact_values(self):
        p = CostPolynomial((True, 2, 0.1, Fraction(1, 3)))
        assert [(c, type(c)) for c in p.coefficients] == \
            [(Fraction(1), Fraction), (Fraction(2), Fraction),
             (Fraction(3602879701896397, 36028797018963968), Fraction), (Fraction(1, 3), Fraction)]
        group = Group("g", (("a",),), (1, 1.0, Fraction(1), True, 0.5))
        assert group.runs == ((Fraction(1), 4), (Fraction(1, 2), 1))
        assert all(type(d) is Fraction for d, _ in group.runs)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "1"],
                             ids=["inf", "-inf", "nan", "string"])
    def test_only_finite_numbers_convert(self, bad):
        with pytest.raises(GameSchemaError) as err:
            CostPolynomial((Fraction(1), bad))
        assert err.value.path == "coeffs[1]"
        with pytest.raises(GameSchemaError) as err:
            Group("g", (("a",),), (Fraction(1), 1.0, bad, Fraction(2)))
        assert err.value.path == "users[2].demand"

    def test_marginal_and_integral(self):
        p = poly(1, 0)  # x
        assert p.marginal.value(3) == 6  # x + x = 2x
        assert cost_integral(p, Fraction(2)) == 2

    def test_derivative(self):
        p = poly(1, 0, 0)  # x^2
        assert p.derivative().value(Fraction(3)) == 6


_DELETE = object()  # a key the document leaves out


class TestLoadGame:
    def test_example_document(self):
        game = load_game(asset_text("parallel_quadratic_constant.json"))
        assert game.total_demand == 4
        assert game.d_max == 2
        assert game.arcs["u"].degree == 2
        assert all(type(c) is Fraction for p in game.arcs.values() for c in p.coefficients)

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

    @pytest.mark.parametrize("arc, group, message", [
        ({"coeffs": []}, {}, "arcs[1].coeffs: expected a nonempty list"),
        ({"coeffs": [1, -1]}, {}, "arcs[1].coeffs[1]: coefficient must be >= 0"),
        ({"coeffs": [0, 1]}, {}, "arcs[1].coeffs[0]: leading coefficient must be > 0"),
        ({"coeffs": [-1, 1]}, {}, "arcs[1].coeffs[0]: coefficient must be >= 0"),
        ({}, {"paths": None}, "groups[0].paths: group needs at least one path"),
        ({}, {"paths": []}, "groups[0].paths: group needs at least one path"),
        ({}, {"users": []}, "groups[0].users: group needs at least one user"),
        ({}, {"users": [{"demand": 0}]}, "groups[0].users[0].demand: demand must be > 0"),
        ({}, {"users": [{"demand": "-1/2"}]}, "groups[0].users[0].demand: demand must be > 0"),
        ({}, {"paths": _DELETE}, "groups[0].paths: group needs at least one path"),
        ({}, {"users": _DELETE}, "groups[0].users: group needs at least one user"),
        ({}, {"users": None}, "groups[0].users: group needs at least one user"),
    ], ids=["empty-coeffs", "negative-coeff", "zero-leading", "negative-leading",
            "null-paths", "empty-paths", "empty-users", "zero-demand", "negative-demand",
            "missing-paths", "missing-users", "null-users"])
    def test_value_rules_name_their_field(self, arc, group, message):
        # load_game checks only the shape: each rule below lives in
        # CostPolynomial or Game, and its message names the document field.
        doc = {"arcs": [{"id": "a", "coeffs": [1, 0]}, {"id": "b", "coeffs": [2], **arc}],
               "groups": [{"id": "g", "paths": [["a"], ["b"]], "users": [{"demand": 1}],
                           **group}]}
        doc["groups"][0] = {k: v for k, v in doc["groups"][0].items() if v is not _DELETE}
        with pytest.raises(GameSchemaError) as err:
            load_game(doc)
        assert str(err.value) == message

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

    @pytest.mark.parametrize("text", [" 3 ", "1_000", "\u0661", "1e3", ".5"])
    def test_number_strings_outside_the_syntax_refused(self, text):
        # Fraction alone reads each of these as a number.
        doc = {"arcs": [{"id": "a", "coeffs": [1, 0]}],
               "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": text}]}]}
        with pytest.raises(GameSchemaError) as err:
            load_game(doc)
        assert err.value.path == "groups[0].users[0].demand"
        assert str(err.value).endswith(
            "expected [+-]digits, [+-]digits/digits or a plain decimal")

    @pytest.mark.parametrize("text, value", [("3", 3), ("+2", 2), ("-1/2", Fraction(-1, 2)),
                                             ("1.25", Fraction(5, 4)), ("007/14", Fraction(1, 2))])
    def test_number_strings_in_the_syntax_read_exactly(self, text, value):
        doc = {"arcs": [{"id": "a", "coeffs": [text, 0]}],
               "groups": [{"id": "g", "paths": [["a"]], "users": [{"demand": 1}]}]}
        if value > 0:
            assert load_game(doc).arcs["a"].coefficients[0] == value
        else:  # parsed, then refused by the value rule
            with pytest.raises(GameSchemaError, match=r"arcs\[0\]\.coeffs\[0\]: coefficient must be >= 0"):
                load_game(doc)

    def test_arcs_is_one_read_only_view(self):
        game = two_commodity_game(1, 2)
        assert game.arcs is game.arcs
        with pytest.raises(TypeError):
            game.arcs["s11"] = poly(1)
        rebuilt = Game(game.arcs, game.groups)
        assert dump_game(rebuilt) == dump_game(game)


# Adjacent equal values of different types, zeros of both signs, and any
# small int, Fraction or float; each drawn value repeats one to four times.
_demand_values = st.one_of(
    st.sampled_from([1, Fraction(1), 1.0, 0.5, Fraction(1, 2), 0, -0.0, 0.0, Fraction(0), True]),
    st.integers(-2, 6), st.fractions(-2, 6, max_denominator=7),
    st.floats(-2.0, 6.0, allow_nan=False))
_demand_lists = st.lists(st.tuples(_demand_values, st.integers(1, 4)), min_size=1, max_size=12).map(
    lambda pairs: [d for d, repeat in pairs for _ in range(repeat)])


def _json_demand(d):
    """``d`` as a document writes it: Fractions as "num/den" strings."""
    return f"{d.numerator}/{d.denominator}" if isinstance(d, Fraction) else d


class TestDemandRuns:
    """A group holds its users as runs; every figure read from the runs
    matches the per-user oracle computed here from the demand list."""

    @settings(max_examples=400, deadline=None)
    @given(demands=_demand_lists)
    def test_runs_match_per_user_oracles(self, demands):
        from poakit.solvers import _user_classes

        group = Group("g", (("a",), ("b",)), tuple(demands))
        exact = [Fraction(d) for d in demands]  # every demand is held as its exact value
        assert [(d, type(d)) for d in group.demands] == [(d, Fraction) for d in exact]
        assert group.runs == tuple((d, len(list(same))) for d, same in itertools.groupby(exact))
        assert (group.total_demand, type(group.total_demand)) == (sum(exact), Fraction)
        assert group.n_users == len(demands) == sum(count for _, count in group.runs)
        arcs = {"a": poly(1, 0), "b": poly(2, 1)}
        bad = [ui for ui, d in enumerate(demands) if not d > 0]
        if bad:
            with pytest.raises(GameSchemaError) as err:
                Game(arcs, [group])
            assert err.value.path == f"groups[0].users[{bad[0]}].demand"
            return
        game = Game(arcs, [group])
        assert game.n_users == len(demands)
        assert (game.d_max, type(game.d_max)) == (max(exact), Fraction)
        sizes: dict = {}  # per distinct demand, in order of first use
        for d in exact:
            sizes[d] = sizes.get(d, 0) + 1
        classes = _user_classes(game, [0])
        assert [(c.gi, c.demand, type(c.demand), c.size) for c in classes] == \
            [(0, d, Fraction, size) for d, size in sizes.items()]

    @settings(max_examples=200, deadline=None)
    @given(demands=_demand_lists)
    def test_load_game_folds_runs_as_it_parses(self, demands):
        demands = [d for d in demands if type(d) is not bool]
        assume(demands)
        doc = {"arcs": [{"id": "a", "coeffs": [1, 0]}],
               "groups": [{"id": "g", "paths": [["a"]],
                           "users": [{"demand": _json_demand(d)} for d in demands]}]}
        bad = [ui for ui, d in enumerate(demands) if not d > 0]
        if bad:
            with pytest.raises(GameSchemaError) as err:
                load_game(doc)
            assert err.value.path == f"groups[0].users[{bad[0]}].demand"
            return
        group = load_game(doc).groups[0]
        assert group.demands == tuple(Fraction(d) for d in demands)
        assert all(type(d) is Fraction for d in group.demands)
        assert len(group.runs) <= len(demands)
        assert load_game(json.dumps(dump_game(load_game(doc)))).groups == (group,)

    def test_load_game_takes_any_mapping_user(self):
        # A user that is a Mapping but not a dict loads as a dict would; a
        # list user is refused at its own path.
        from types import MappingProxyType

        def doc(users):
            return {"arcs": [{"id": "a", "coeffs": [1, 0]}],
                    "groups": [{"id": "g", "paths": [["a"]], "users": users}]}

        users = [{"demand": 1}, MappingProxyType({"demand": 1}), {"demand": "1/2"}]
        group = load_game(doc(users)).groups[0]
        assert group.runs == ((Fraction(1), 2), (Fraction(1, 2), 1))
        with pytest.raises(GameSchemaError) as err:
            load_game(doc([{"demand": 1}, ["demand", 1]]))
        assert err.value.path == "groups[0].users[1]"


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
        mean, var = flow_moments(game, profile, "u")
        assert mean == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-12)
        assert var == pytest.approx(8 * a * (1 - a), abs=1e-12)

    def test_monte_carlo_cross_check(self):
        game = quadratic_constant_game()
        a = (math.sqrt(2) - 1) / 2
        profile = MixedProfile((((a, 1 - a), (a, 1 - a)),))
        mean, var = flow_moments(game, profile, "u")
        n = 200_000
        draws = (sample_uniforms(9, 0, n, 2) >> 11) * 2.0 ** -53
        flows = 2.0 * (draws[:, 0] < a) + 2.0 * (draws[:, 1] < a)
        se = math.sqrt(var / n)
        assert abs(flows.mean() - mean) <= 3 * se

    def test_degenerate_profile_zero_variance(self):
        game = quadratic_constant_game()
        profile = point_mass_profile(game, AtomicProfile(((0, 0),)))
        assert all(flow_moments(game, profile, aid)[1] == 0 for aid in game.arc_ids)

    def test_single_user_bernoulli(self):
        game = Game({"u": poly(1, 0), "l": poly(1)},
                    [Group("g", (("u",), ("l",)), (Fraction(2),))])
        profile = MixedProfile((((Fraction(1, 2), Fraction(1, 2)),),))
        mean, var = flow_moments(game, profile, "u")
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
        draws = (sample_uniforms(3, 0, n, 2) >> 11) * 2.0 ** -53
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
            draws = (sample_uniforms(11, 0, n, game.n_users) >> 11) * 2.0 ** -53
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
