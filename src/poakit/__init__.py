"""poakit: congestion-game equilibria, inefficiency ratios, and bound checks.

Each public name is imported from its module on first use (PEP 562), so a
run loads only the layers it calls: a document load never compiles the
solver, PoA and bound modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "game": """AtomicProfile CostPolynomial Game GameSchemaError Group MixedProfile PathFlow
        draw_atomic_profile load_game""",
    "solvers": """AtomicEquilibria BudgetExceededError EquilibriumResult SolverConfig
        best_response_atomic enumerate_atomic_equilibria expected_arc_statistics
        expected_total_cost solve_atomic_so solve_mixed_ne_small solve_nonatomic_ne
        solve_nonatomic_so verify_wardrop""",
    "poa": """PoaReport RandomPoaDistribution atomic_poa compute_poa_report
        exact_random_cost_distribution mixed_poa_small nonatomic_poa sample_random_poa""",
    "bounds": """BoundInputs TailBound TailVariant arc_deviation_probability_bound
        atomic_ne_approximation_bound atomic_poa_upper_bound expected_flow_approximation
        nonatomic_poa_upper_bound random_poa_probability_bound scale_game
        weighted_bernoulli_tail_bound""",
    "decomposition": """DemandFamily DemandLaw classify_groups decomposition_prediction
        limit_game load_family ordered_partition scaling_exponent tight_paths
        worst_atomic_cost""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:  # AttributeError lets ``from poakit import <submodule>`` import it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
