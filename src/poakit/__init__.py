"""poakit: congestion-game equilibria, inefficiency ratios, and bound checks."""

__version__ = "0.1.0"

from .game import (
    AtomicProfile,
    CostPolynomial,
    Game,
    GameSchemaError,
    Group,
    MixedProfile,
    PathFlow,
    draw_atomic_profile,
    dump_game,
    expected_arc_flow_and_variance,
    load_game,
)
from .solvers import (
    AtomicEquilibria,
    BudgetExceededError,
    EquilibriumResult,
    SolverConfig,
    beckmann_potential,
    best_response_atomic,
    enumerate_atomic_equilibria,
    epsilon_ne_residual,
    expected_arc_statistics,
    expected_total_cost,
    mixed_ne_residual,
    solve_atomic_so,
    solve_mixed_ne_small,
    solve_nonatomic_ne,
    solve_nonatomic_so,
    verify_wardrop,
)
from .poa import (
    PoaReport,
    RandomPoaDistribution,
    atomic_poa,
    compute_poa_report,
    exact_random_cost_distribution,
    mixed_poa_small,
    nonatomic_poa,
    sample_random_poa,
)
from .bounds import (
    BoundInputs,
    TailBound,
    TailVariant,
    arc_deviation_probability_bound,
    atomic_ne_approximation_bound,
    atomic_poa_upper_bound,
    expected_flow_approximation,
    nonatomic_poa_upper_bound,
    random_poa_probability_bound,
    scale_game,
    weighted_bernoulli_tail_bound,
)
from .decomposition import (
    DemandFamily,
    DemandLaw,
    classify_groups,
    decomposition_prediction,
    limit_game,
    load_family,
    ordered_partition,
    scaling_exponent,
    tight_paths,
    worst_atomic_cost,
)
