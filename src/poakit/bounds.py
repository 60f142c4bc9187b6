"""Scaled games and closed-form bound evaluators.

Scaling compresses costs by a factor g and normalizes demands so the total
is 1; it leaves all four inefficiency ratios unchanged, which lets the
bound expressions be stated on the unit-demand game.  Every evaluator here
is a pure formula over game summary quantities; none of them solves a
game, so bound-versus-measurement comparisons stay independent.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .game import Game, Group, Number


def scale_game(base: Game, g: Number) -> Game:
    """Game with costs x -> tau(x * T) / g and demands divided by T, the base
    game's total demand: evaluation satisfies tau_scaled(x) * g = tau(x * T)."""
    if g <= 0:
        raise ValueError("scaling factor must be > 0")
    total = base.total_demand
    arcs = {aid: poly.scaled(total, g) for aid, poly in base.arcs.items()}
    groups = [Group(grp.gid, grp.paths, runs=[(d / total, count) for d, count in grp.runs])
              for grp in base.groups]
    return Game(arcs, groups)


class BoundInputs:
    """Summary quantities entering the closed-form bounds (same-degree games).

    ``kappa`` is the Lipschitz constant of the scaled costs on [0, 1]:
    degree * max coefficient * (1 + sum of T^-l for l = 1..degree).
    """

    def __init__(self, degree: int, eta_max: float, eta0_min: float, n_arcs: int,
                 n_paths: int, total_demand: float, d_max: float):
        if eta0_min <= 0:
            raise ValueError("minimum leading coefficient must be > 0")
        if total_demand <= 0 or d_max <= 0:
            raise ValueError("demands must be > 0")
        self.degree = degree
        self.eta_max = eta_max
        self.eta0_min = eta0_min
        self.n_arcs = n_arcs
        self.n_paths = n_paths
        self.total_demand = total_demand
        self.d_max = d_max

    @property
    def geometric_tail(self) -> float:
        """sum of T^-l for l = 1..degree (0 when the degree is 0)."""
        return sum(self.total_demand ** -l for l in range(1, self.degree + 1))

    @property
    def kappa(self) -> float:
        return self.degree * self.eta_max * (1.0 + self.geometric_tail)

    @property
    def demand_ratio(self) -> float:
        return self.d_max / self.total_demand

    @staticmethod
    def from_game(game: Game) -> "BoundInputs":
        degrees = set(game.degrees)
        if len(degrees) != 1:
            raise ValueError(f"bound evaluators need one common degree, got {sorted(degrees)}")
        eta_max = max(c for p in game.arcs.values() for c in p.float_coefficients)
        eta0_min = min(p.float_coefficients[0] for p in game.arcs.values())
        return BoundInputs(degree=degrees.pop(), eta_max=eta_max, eta0_min=eta0_min,
                           n_arcs=game.n_arcs, n_paths=game.n_paths,
                           total_demand=float(game.total_demand), d_max=float(game.d_max))


def atomic_poa_upper_bound(inputs: BoundInputs) -> float:
    """Closed-form ceiling for the atomic ratio of a same-degree game: the
    non-atomic ceiling + (|A| kappa |P|^b / eta0_min) sqrt(epsilon)
    + (|A| kappa |P|^(b+1) / eta0_min) (d_max / T), with the epsilon of
    ``atomic_ne_approximation_bound``."""
    b, k = inputs.degree, inputs.kappa
    eps, _ = atomic_ne_approximation_bound(inputs)
    mid = inputs.n_arcs * k * inputs.n_paths ** b / inputs.eta0_min * math.sqrt(eps)
    tail = inputs.n_arcs * k * inputs.n_paths ** (b + 1) / inputs.eta0_min * inputs.demand_ratio
    return nonatomic_poa_upper_bound(inputs) + mid + tail


def nonatomic_poa_upper_bound(inputs: BoundInputs) -> float:
    """1 + (b eta_max |P|^b / eta0_min) sum_l T^-l; exactly 1 for constant costs."""
    b = inputs.degree
    return 1.0 + b * inputs.eta_max * inputs.n_paths ** b / inputs.eta0_min * inputs.geometric_tail


def atomic_ne_approximation_bound(inputs: BoundInputs):
    """(epsilon, arc-cost gap) certifying how nearly non-atomic a pure NE is.

    In the scaled game, any atomic equilibrium violates the variational
    inequality by at most epsilon = |P| |A| kappa d_max / T, and its arc
    costs differ from the non-atomic equilibrium's by at most
    kappa sqrt(epsilon).
    """
    eps = inputs.n_paths * inputs.n_arcs * inputs.kappa * inputs.demand_ratio
    return eps, inputs.kappa * math.sqrt(eps)


class ExpectedFlowApproximation(NamedTuple):
    eps_expected: float
    p_delta: float
    expected_flow_is_equilibrium: bool  # constant costs make the bound exact


def expected_flow_approximation(inputs: BoundInputs, delta: float) -> ExpectedFlowApproximation:
    """Approximation quality of a mixed equilibrium's expected flow.

    eps_expected = 2 |P| kappa |A| (1 + |A| / (4b)) (d_max/T)^(1/3) bounds the
    variational residual of the scaled expected flow; with probability at
    least 1 - p_delta, every scaled arc flow realization stays within
    (d_max/T)^delta of its mean, where
    p_delta = (|A|/4) (d_max/T)^(1 - 2 delta).
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    p_delta = _p_delta(inputs.n_arcs, inputs.demand_ratio, delta)
    if inputs.degree == 0:
        return ExpectedFlowApproximation(0.0, p_delta, True)
    eps = (2.0 * inputs.n_paths * inputs.kappa * inputs.n_arcs
           * (1.0 + inputs.n_arcs / (4.0 * inputs.degree))
           * inputs.demand_ratio ** (1.0 / 3.0))
    return ExpectedFlowApproximation(eps, p_delta, False)


def arc_deviation_probability_bound(inputs: BoundInputs, delta: float) -> float:
    """Per-arc bound (1/4) (d_max/T)^(1-2 delta) on P(|flow - mean| > (d_max/T)^delta).

    Follows from Chebyshev: the scaled arc flow is a weighted sum of
    independent indicator variables with variance at most d_max / (4 T).
    """
    if not 0.0 <= delta < 0.5:
        raise ValueError("delta must lie in [0, 1/2)")
    return _p_delta(1, inputs.demand_ratio, delta)


def _p_delta(n_arcs: int, ratio: float, delta: float) -> float:
    """p_delta = (|A|/4) (d_max/T)^(1 - 2 delta), the per-arc bound summed over arcs."""
    return n_arcs / 4.0 * ratio ** (1.0 - 2.0 * delta)


# ---------------------------------------------------------------------------
# Weighted-Bernoulli tail bounds
# ---------------------------------------------------------------------------

class TailVariant(Enum):
    UPPER = "upper"  # P(Y >= (1+delta) E)
    LOWER = "lower"  # P(Y <= (1-delta) E)
    UPPER_FIXED = "upper-fixed"  # P(Y >= 1+delta), asymptotic regime E -> 0
    LOWER_SHIFTED = "lower-shifted"  # P(Y <= (1-delta)(E-c)), asymptotic regime


class TailBound(NamedTuple):
    value: float
    asymptotic: bool  # True when the bound only holds for large enough n


def weighted_bernoulli_tail_bound(weights: Sequence[float], probs: Sequence[float],
                                  delta: float, variant: TailVariant,
                                  c: Optional[float] = None) -> TailBound:
    """Chernoff-style tails for Y = sum v_i X_i with independent Bernoulli X_i.

    The exponents depend on the weights only through their sum and maximum,
    which keeps the bounds usable when individual weights shrink while the
    total stays large.  The two *_FIXED/_SHIFTED variants are valid for all
    large enough n only; they are returned with an advisory flag instead of
    being rejected.
    """
    if len(weights) != len(probs):
        raise ValueError("weights and probs must have equal length")
    if any(v < 0 for v in weights):
        raise ValueError("weights must be >= 0")
    if any(not 0 <= q <= 1 for q in probs):
        raise ValueError("probabilities must lie in [0, 1]")
    upsilon = max(weights) if weights else 0.0
    if upsilon <= 0:
        raise ValueError("at least one weight must be > 0")
    total = math.fsum(weights)
    mean = math.fsum(v * q for v, q in zip(weights, probs))

    if not isinstance(variant, TailVariant):
        raise ValueError(f"unknown variant {variant!r}")
    asymptotic = variant in (TailVariant.UPPER_FIXED, TailVariant.LOWER_SHIFTED)
    level = mean
    if variant in (TailVariant.UPPER, TailVariant.UPPER_FIXED):
        if delta <= 0:
            raise ValueError("delta must be > 0")
        if asymptotic:  # UPPER_FIXED is UPPER at level 1
            if total <= 1:
                raise ValueError("the fixed-threshold variant needs total weight > 1")
            level = 1.0
        exponent = (delta + 1.0) * level / upsilon * (math.log(delta + 1.0) - delta / (delta + 1.0))
        return TailBound(math.exp(-exponent), asymptotic)

    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if asymptotic:  # LOWER_SHIFTED is LOWER at level E(Y) - c
        if c is None or not 0 < c < mean:
            raise ValueError("shift c must lie in (0, E(Y))")
        level = mean - c
    elif mean == total:
        return TailBound(0.0, False)  # Y == total almost surely
    num = total - (1.0 - delta) * level
    exponent = num / upsilon * (math.log(num / (total - level)) - delta * level / num)
    return TailBound(math.exp(-exponent), asymptotic)


# ---------------------------------------------------------------------------
# Composed random-ratio bound
# ---------------------------------------------------------------------------

class RandomPoaBound(NamedTuple):
    """Probabilistic ceiling: the random ratio stays below ``threshold``
    except with probability at most ``p_delta``."""

    threshold: float
    p_delta: float


def random_poa_probability_bound(game: Game, delta: float, nonatomic_poa_value: float,
                                 nonatomic_so_cost: float) -> RandomPoaBound:
    """Compose the per-piece guarantees into one random-ratio ceiling.

    Works for arbitrary per-arc degrees by using the exact Lipschitz
    constant L and cost ceiling M of the scaled costs on [0, 1] (for a
    common degree these are no larger than the kappa-based constants).
    The realized cost differs from the expected-flow cost by at most
    |A| (L + M) (d_max/T)^delta except with probability p_delta, and the
    expected flow is within |A| L sqrt(eps) + eps of the non-atomic
    equilibrium cost, all in the scaled game whose optimum cost is the
    supplied one divided by T * g.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    total = float(game.total_demand)
    beta_max = max(game.degrees)
    g = total ** beta_max
    lipschitz = 0.0
    ceiling = 0.0
    for poly in game.arcs.values():
        scaled = poly.scaled(total, g)
        # costs are convex on [0, infinity), so both maxima sit at x = 1
        lipschitz = max(lipschitz, float(scaled.derivative().value(1.0)))
        ceiling = max(ceiling, float(scaled.value(1.0)))
    ratio = float(game.d_max) / total
    n_arcs, n_paths = game.n_arcs, game.n_paths
    p_delta = _p_delta(n_arcs, ratio, delta)
    eps = (2.0 * n_paths * n_arcs * (lipschitz + n_arcs / 4.0 * ceiling) * ratio ** (1.0 / 3.0))
    gap_expected = n_arcs * lipschitz * math.sqrt(eps) + eps
    gap_realized = n_arcs * (lipschitz + ceiling) * ratio ** delta
    so_scaled = nonatomic_so_cost / (total * g)
    threshold = nonatomic_poa_value + (gap_expected + gap_realized) / so_scaled
    return RandomPoaBound(threshold=threshold, p_delta=p_delta)
