"""What the package and its tests rely on of each record type.

A case builds one record and states one of three things: the exact error a
bad construction raises, the fields a positional or default construction
gives, or that two equal builds compare and hash equal while a different
one does not.
"""

import math
from fractions import Fraction

import pytest

from poakit import (
    AtomicEquilibria,
    AtomicProfile,
    BoundInputs,
    CostPolynomial,
    DemandFamily,
    DemandLaw,
    EquilibriumResult,
    Game,
    GameSchemaError,
    Group,
    MixedProfile,
    PoaReport,
    RandomPoaDistribution,
    SolverConfig,
    TailBound,
)
from poakit.bounds import ExpectedFlowApproximation, RandomPoaBound
from poakit.decomposition import ClassSummary, DecompositionReport, PredictionRow
from poakit.runner import EXIT_OK, ExperimentConfig, RunFailure, RunReport

HALF = Fraction(1, 2)
GAME = Game({"a": CostPolynomial((Fraction(1),))}, [Group("g", (("a",),), (Fraction(1),))])
BOUND_INPUTS = dict(degree=1, eta_max=2.0, eta0_min=1.0, n_arcs=2, n_paths=2,
                    total_demand=4.0, d_max=2.0)


def _result(**changes):
    return EquilibriumResult(**{"flow": None, "kind": "atomic-ne", "residual": 0.0,
                                "iterations": 0, "exact": True, **changes})


CASES = {
    # Errors raised when a record is built.
    "CostPolynomial-empty": (lambda: CostPolynomial(()),
                             GameSchemaError("coeffs", "expected a nonempty list")),
    "CostPolynomial-negative": (lambda: CostPolynomial((Fraction(1), Fraction(-1))),
                                GameSchemaError("coeffs[1]", "coefficient must be >= 0")),
    "SolverConfig-tolerance": (lambda: SolverConfig(tolerance=0.0),
                               ValueError("tolerance must be finite and > 0, got 0.0")),
    "SolverConfig-nan": (lambda: SolverConfig(tolerance=math.nan),
                         ValueError("tolerance must be finite and > 0, got nan")),
    "SolverConfig-budget": (lambda: SolverConfig(enumeration_budget=0),
                            ValueError("enumeration budget must be >= 1")),
    "SolverConfig-seed": (lambda: SolverConfig(rng_seed=2**64),
                          ValueError(f"seed must be in 0 .. 2**64 - 1, got {2**64}")),
    "SolverConfig-negative-seed": (lambda: SolverConfig(1e-9, 10, -1),
                                   ValueError("seed must be in 0 .. 2**64 - 1, got -1")),
    "EquilibriumResult-cost": (lambda: _result(cost=math.inf),
                               OverflowError("atomic-ne cost inf is not a finite float")),
    "DemandLaw-c": (lambda: DemandLaw(0, 1.0, user_demand=1),
                    ValueError("demand coefficient c must be > 0")),
    "DemandLaw-gamma": (lambda: DemandLaw(1, -1.0, user_demand=1),
                        ValueError("growth exponent gamma must be >= 0")),
    "DemandLaw-granularity": (lambda: DemandLaw(1, 1.0, 1, (1, 0)),
                              ValueError("exactly one of user_demand / user_count is required")),
    "DemandLaw-user-demand": (lambda: DemandLaw(1, 1.0, user_demand=0),
                              ValueError("user granularity must be > 0")),
    "DemandLaw-user-count": (lambda: DemandLaw(1, 1.0, user_count=(0, 1)),
                             ValueError("user-count law needs c > 0 and gamma >= 0")),
    "DemandFamily-unknown": (lambda: DemandFamily(GAME, {"g": DemandLaw(1, 1.0, user_demand=1),
                                                         "x": DemandLaw(1, 1.0, user_demand=1)}),
                             GameSchemaError("demand_laws[x]", "the game has no group 'x'")),
    "DemandFamily-missing": (lambda: DemandFamily(base=GAME, laws={}),
                             GameSchemaError("demand_laws", "missing demand law for group 'g'")),
    "BoundInputs-eta": (lambda: BoundInputs(**{**BOUND_INPUTS, "eta0_min": 0.0}),
                        ValueError("minimum leading coefficient must be > 0")),
    "BoundInputs-demand": (lambda: BoundInputs(**{**BOUND_INPUTS, "d_max": 0.0}),
                           ValueError("demands must be > 0")),
    # Fields of a positional or default construction, as the package builds them.
    "EquilibriumResult-defaults": (_result, {"flow": None, "kind": "atomic-ne", "exact": True,
                                             "converged": True, "cost": None, "note": "",
                                             "wall_time": 0.0}),
    "AtomicEquilibria": (lambda: AtomicEquilibria([], None, 7, "optimum"),
                         {"equilibria": [], "worst": None, "states_scanned": 7,
                          "optimum": "optimum"}),
    "PoaReport-defaults": (lambda: PoaReport(1, 2.0, None, 3, 4.0),
                           {"atomic_poa": 1, "nonatomic_poa": 2.0, "mixed_poa": None,
                            "atomic_so_cost": 3, "nonatomic_so_cost": 4.0,
                            "atomic_status": "ok", "mixed_status": "ok",
                            "mixed_certified": False, "nonatomic_ne": None,
                            "nonatomic_so": None, "mixed_ne": None, "equilibria": None}),
    "RandomPoaDistribution": (lambda: RandomPoaDistribution("values", "counts", [], "ok"),
                              {"values": "values", "counts": "counts", "exact": [],
                               "exact_status": "ok"}),
    "BoundInputs": (lambda: BoundInputs(1, 2.0, 1.0, 2, 2, 4.0, 2.0), BOUND_INPUTS),
    "TailBound": (lambda: TailBound(0.5, True), {"value": 0.5, "asymptotic": True}),
    "ExpectedFlowApproximation": (lambda: ExpectedFlowApproximation(0.0, 0.5, True),
                                  {"eps_expected": 0.0, "p_delta": 0.5,
                                   "expected_flow_is_equilibrium": True}),
    "RandomPoaBound": (lambda: RandomPoaBound(threshold=2.0, p_delta=0.5),
                       {"threshold": 2.0, "p_delta": 0.5}),
    "DemandLaw": (lambda: DemandLaw(2, 1.0, HALF),
                  {"c": 2, "gamma": 1.0, "user_demand": HALF, "user_count": None}),
    "DemandFamily": (lambda: DemandFamily(GAME, {"g": "law"}), {"base": GAME, "laws": {"g": "law"}}),
    "ClassSummary": (lambda: ClassSummary(["g"], 1.0, 2, 3.0, 4.0),
                     {"gids": ["g"], "gamma": 1.0, "lam": 2, "demand_coefficient": 3.0,
                      "limit_cost": 4.0}),
    "PredictionRow": (lambda: PredictionRow(1, 2.0, 3.0, [3.0], None, 4.0, None, 0.75, False),
                      {"n": 1, "total_demand": 2.0, "predicted": 3.0, "class_costs": [3.0],
                       "measured_atomic": None, "measured_nonatomic": 4.0, "atomic_ratio": None,
                       "nonatomic_ratio": 0.75, "atomic_is_lower_bound": False}),
    "DecompositionReport": (lambda: DecompositionReport(classes=[], irregular=["g"], rows=[]),
                            {"classes": [], "irregular": ["g"], "rows": []}),
    "ExperimentConfig-defaults": (ExperimentConfig,
                                  {"game_path": None, "family_path": None, "profile_path": None,
                                   "grid": (), "n_samples": 100_000, "seed": 0, "out_dir": None,
                                   "solver": SolverConfig()}),
    "RunReport-defaults": (lambda: RunReport(config={"mode": "solve"}),
                           {"config": {"mode": "solve"}, "rows": [], "verdicts": [],
                            "wall_time": 0.0, "exit_code": EXIT_OK}),
    "RunFailure-defaults": (lambda: RunFailure("load", "no such file"),
                            {"step": "load", "detail": "no such file", "exit_code": None}),
    # Value equality: equal builds compare and hash equal, another build differs.
    "CostPolynomial-equal": (lambda: CostPolynomial((Fraction(1), HALF)),
                             lambda: CostPolynomial((Fraction(1), Fraction(1)))),
    "Group-equal": (lambda: Group("g", (("a",), ("b",)), (HALF, HALF, Fraction(1))),
                    lambda: Group("g", (("a",), ("b",)), (HALF, Fraction(1), HALF))),
    "AtomicProfile-equal": (lambda: AtomicProfile(((0, 1), (1,))),
                            lambda: AtomicProfile(((1, 0), (1,)))),
    "MixedProfile-equal": (lambda: MixedProfile((((HALF, HALF), (Fraction(1), Fraction(0))),)),
                           lambda: MixedProfile((((HALF, HALF), (Fraction(0), Fraction(1))),))),
    "SolverConfig-equal": (lambda: SolverConfig(tolerance=1e-6, rng_seed=3),
                           lambda: SolverConfig(tolerance=1e-6, rng_seed=4)),
}


@pytest.mark.parametrize("build, outcome", CASES.values(), ids=CASES.keys())
def test_record_contract(build, outcome):
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome)) as raised:
            build()
        assert type(raised.value) is type(outcome) and str(raised.value) == str(outcome)
    elif isinstance(outcome, dict):
        record, twin = build(), build()
        assert {name: getattr(record, name) for name in outcome} == outcome
        for name, value in outcome.items():  # a list default is each record's own
            if value == [] and type(value) is list:
                assert getattr(record, name) is not getattr(twin, name), name
    else:
        record, twin, other = build(), build(), outcome()
        assert record is not twin and record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert record != other and not record == other
