"""The four inefficiency ratios and random-cost sampling.

Atomic, non-atomic, and mixed ratios divide worst-case equilibrium cost by
the matching optimum cost.  The random ratio is the distribution of the
realized total cost of a mixed profile over the atomic optimum cost; it is
sampled with a counter-based generator (sample i is a pure function of the
seed and i, so sharded runs reproduce exactly) and, on small games, also
computed exactly by state enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, Optional

from .game import Game, MixedProfile, Number
from .solvers import (
    AtomicEquilibria,
    BudgetExceededError,
    EquilibriumResult,
    SolverConfig,
    _mixed_summary,
    best_response_atomic,
    check_seed,
    enumerate_atomic_equilibria,
    expected_arc_statistics,
    expected_path_costs,
    expected_total_cost,
    require_converged,
    solve_mixed_ne_small,
    solve_nonatomic_ne,
    solve_nonatomic_so,
)

if TYPE_CHECKING:  # numpy is imported where samples are drawn, not on every start
    import numpy as np

POA_FLOOR_TOL = 1e-9


@dataclass(frozen=True)
class SamplingPlan:
    n_samples: int = 100_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        check_seed(self.rng_seed)


@dataclass
class PoaReport:
    atomic_poa: Optional[Number]
    nonatomic_poa: Optional[float]
    mixed_poa: Optional[float]
    atomic_so_cost: Optional[Number]
    nonatomic_so_cost: Optional[float]
    atomic_status: str = "ok"
    mixed_status: str = "ok"
    mixed_certified: bool = False
    nonatomic_ne: Optional[EquilibriumResult] = None  # the solves behind nonatomic_poa
    nonatomic_so: Optional[EquilibriumResult] = None
    mixed_ne: Optional[EquilibriumResult] = None  # set when the game is in mixed scope

    def validate(self) -> None:
        for name, value in (("atomic", self.atomic_poa), ("nonatomic", self.nonatomic_poa),
                            ("mixed", self.mixed_poa)):
            if value is not None and float(value) < 1 - POA_FLOOR_TOL:
                raise ValueError(f"{name} ratio {float(value)} below 1")
        if self.atomic_so_cost is not None and self.nonatomic_so_cost is not None:
            if float(self.atomic_so_cost) < float(self.nonatomic_so_cost) - POA_FLOOR_TOL:
                raise ValueError("atomic optimum cheaper than non-atomic optimum")


def atomic_poa(game: Game, config: SolverConfig = SolverConfig()):
    """Worst pure-equilibrium cost over the atomic optimum cost.

    Exact (Fraction) when the game data is rational.  Returns
    ``(value, status)`` with value None when no pure equilibrium exists.
    """
    equilibria = enumerate_atomic_equilibria(game, config)
    if equilibria.worst is None:
        return None, "no atomic equilibrium (weighted game)"
    return equilibria.worst.cost / equilibria.optimum.cost, "ok"


def nonatomic_pair(game: Game, config: SolverConfig = SolverConfig()):
    """The non-atomic ratio with the equilibrium and optimum behind it.

    Returns ``(ratio, ne, so)``; RuntimeError if either solve did not converge.
    """
    so = require_converged(solve_nonatomic_so(game, config))
    ne = require_converged(solve_nonatomic_ne(game, config))
    return float(ne.cost) / float(so.cost), ne, so


def nonatomic_poa(game: Game, config: SolverConfig = SolverConfig()) -> float:
    """Equilibrium cost over optimum cost for arbitrarily splittable demand."""
    return nonatomic_pair(game, config)[0]


def _unit_roots(c0, c1) -> list:
    """The root of c0 + c1*x when it lies in [0, 1]; none when c1 == 0."""
    if c1 == 0:
        return []
    x = -c0 / c1
    return [x] if 0 <= x <= 1 else []


def _quadratic_roots(c0, c1, c2) -> list:
    """Real roots of c0 + c1*x + c2*x**2, by the cancellation-free formula."""
    if c2 == 0:
        return [-c0 / c1] if c1 != 0 else []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    root = math.sqrt(disc)
    t = -(c1 + root) / 2 if c1 >= 0 else (root - c1) / 2
    return [t / c2, c0 / t] if t != 0 else [t / c2]


def _worst_on_equilibrium_set(gaps: dict, totals: dict) -> Optional[Number]:
    """Largest bilinear T over the mixed equilibrium set of a bilinear gap G.

    ``gaps`` and ``totals`` map the corners (x, y) in {0, 1}^2 to G and T,
    which fixes G = A + Bx + Cy + Dxy and T = a + bx + cy + dxy.  The
    equilibrium set is the zero set of G in the unit square, plus (0, 0)
    when G(0, 0) >= 0 and (1, 1) when G(1, 1) <= 0.  Where C + Dx != 0 the
    zero set is the curve y(x) = -(A+Bx)/(C+Dx), along which T is a quadratic
    over a linear function of x; its maximum lies at x = 0 or 1, where y(x)
    crosses 0 or 1, or at a root of the quadratic numerator of dT/dx.  Where
    C + Dx and A + Bx both vanish, the whole segment at that x is in the set
    and T, affine in y, peaks at an end.  When G vanishes identically every
    point is in the set and T peaks at a corner.  Exact for Fraction corner
    values except at irrational critical points.  None if the set is empty.
    """
    A = gaps[0, 0]
    B = gaps[1, 0] - A
    C = gaps[0, 1] - A
    D = gaps[1, 1] - gaps[1, 0] - gaps[0, 1] + A
    a = totals[0, 0]
    b = totals[1, 0] - a
    c = totals[0, 1] - a
    d = totals[1, 1] - totals[1, 0] - totals[0, 1] + a

    points = []
    if A >= 0:
        points.append((0, 0))
    if A + B + C + D <= 0:
        points.append((1, 1))
    if A == B == C == D == 0:
        points.extend(totals)
    else:
        for x in _unit_roots(C, D) + _unit_roots(A, B):
            if C + D * x == 0 and A + B * x == 0:
                points.extend([(x, 0), (x, 1)])
        # On the curve T = (n0 + n1 x + n2 x^2) / (C + Dx).
        n0 = a * C - c * A
        n1 = a * D + b * C - c * B - d * A
        n2 = b * D - d * B
        critical = _quadratic_roots(n1 * C - n0 * D, 2 * n2 * C, n2 * D)
        for x in [0, 1, *_unit_roots(A, B), *_unit_roots(A + C, B + D), *critical]:
            den = C + D * x
            if 0 <= x <= 1 and den != 0:
                y = -(A + B * x) / den
                if 0 <= y <= 1:
                    points.append((x, y))
    if not points:
        return None
    return max(a + b * x + c * y + d * x * y for x, y in points)


def _two_user_two_path_worst(game: Game) -> Optional[Number]:
    """Exact worst expected total cost over all mixed equilibria (2 users, 2 paths).

    With x and y the two users' probabilities of taking path 0, their choices
    are independent, so the gap between the two paths' expected costs and
    the expected total cost are both bilinear in (x, y).  Four exact
    evaluations at the pure corners, with Fraction probabilities, fix both,
    and ``_worst_on_equilibrium_set`` maximizes the cost over the equilibrium
    set in closed form.  Returns None outside that scope.
    """
    if len(game.groups) != 1:
        return None
    g = game.groups[0]
    if g.n_users != 2 or g.n_paths != 2:
        return None

    gaps, totals = {}, {}
    for x in (0, 1):
        for y in (0, 1):
            profile = MixedProfile((((Fraction(x), Fraction(1 - x)),
                                     (Fraction(y), Fraction(1 - y))),))
            stats = expected_arc_statistics(game, profile)
            costs = expected_path_costs(game, profile, stats)
            gaps[x, y] = costs[(0, 0)] - costs[(0, 1)]
            totals[x, y] = expected_total_cost(game, profile, stats)
    return _worst_on_equilibrium_set(gaps, totals)


def mixed_poa_small(game: Game, config: SolverConfig = SolverConfig(),
                    equilibria: Optional[AtomicEquilibria] = None,
                    mixed_ne: Optional[EquilibriumResult] = None):
    """Worst mixed-equilibrium expected cost over the atomic optimum.

    Certified when the game has one group of two users on two paths: the
    worst cost over the whole equilibrium set is then computed in closed form
    from four corner evaluations (see ``_two_user_two_path_worst``).
    Otherwise a lower bound from the profiles the solver finds, including
    pure equilibria that satisfy the mixed predicate.  ``equilibria`` reuses
    the caller's ``enumerate_atomic_equilibria`` result (its pure equilibria
    and ``optimum``), and ``mixed_ne`` its ``solve_mixed_ne_small`` result;
    each is computed here when not given.  Returns
    ``(value, certified, status)``.
    """
    if equilibria is None:
        equilibria = enumerate_atomic_equilibria(game, config)

    candidates = []
    certified = False
    swept = _two_user_two_path_worst(game)
    if swept is not None:
        candidates.append(swept)
        certified = True
    else:
        result = solve_mixed_ne_small(game, config) if mixed_ne is None else mixed_ne
        if result.converged:
            candidates.append(float(result.cost))
        for entry in equilibria.equilibria:
            _, residual, cost = _mixed_summary(game, entry.flow.as_mixed(game))
            if residual <= config.tolerance:
                candidates.append(float(cost))

    if not candidates:
        return None, False, "no mixed equilibrium found (solver failure)"
    return float(max(candidates) / equilibria.optimum.cost), certified, "ok"


# ---------------------------------------------------------------------------
# Random ratio sampling
# ---------------------------------------------------------------------------

@dataclass
class RandomPoaDistribution:
    """Empirical and, when available, exact distribution of the random ratio."""

    samples: np.ndarray  # empirical ratio per sample
    exact: list  # (ratio, probability) pairs; empty when not enumerated

    @property
    def empirical_mean(self) -> float:
        return float(self.samples.mean())

    @property
    def empirical_std(self) -> float:
        return float(self.samples.std(ddof=1)) if len(self.samples) > 1 else 0.0

    @property
    def exact_mean(self) -> Optional[float]:
        if not self.exact:
            return None
        return float(sum(v * p for v, p in self.exact))

    def table(self) -> list:
        """Rows (value, probability-or-frequency, source) for CSV export."""
        import numpy as np

        rows = [(float(v), float(p), "exact") for v, p in self.exact]
        values, counts = np.unique(self.samples, return_counts=True)
        rows.extend((float(v), int(c), "monte-carlo") for v, c in zip(values, counts))
        return rows


def _sample_total_costs(game: Game, profile: MixedProfile, plan: SamplingPlan) -> np.ndarray:
    """Vectorized realized total costs; sample i depends only on (seed, i).

    Works one user column at a time.  A user takes the first path whose
    cumulative probability exceeds its uniform, else the last, as
    ``draw_atomic_profile`` does; after a running maximum (which moves no
    first crossing) that is the count of cut points at or below the uniform.
    A path adds its demand to its arcs' load rows where taken, else 0.0.
    """
    import numpy as np

    from .game import SAMPLE_CHUNK, sample_uniforms

    arc_index = {aid: i for i, aid in enumerate(game.arc_ids)}
    users = []  # (demand, cut points, arc rows per path)
    for gi, g in enumerate(game.groups):
        rows = [[arc_index[aid] for aid in path] for path in g.paths]
        for ui, d in enumerate(g.demands):
            cum = np.cumsum([float(p) for p in profile.probabilities[gi][ui]])
            users.append((float(d), np.maximum.accumulate(cum[:-1]), rows))
    coeff_rows = [np.array([float(c) for c in game.arcs[aid].coefficients])
                  for aid in game.arc_ids]

    out = np.empty(plan.n_samples)
    for start in range(0, plan.n_samples, SAMPLE_CHUNK):  # bounded memory whatever n is
        count = min(SAMPLE_CHUNK, plan.n_samples - start)
        draws = sample_uniforms(plan.rng_seed, start, count, len(users))
        flows = np.zeros((len(arc_index), count))
        for u, (d, cuts, rows) in enumerate(users):
            col = draws[:, u]
            choice = sum(col >= cut for cut in cuts)  # 0 (an int) when there is one path
            for pi, arcs in enumerate(rows):
                load = (choice == pi) * d
                for a in arcs:
                    flows[a] += load
        total = np.zeros(count)
        for fa, coeffs in zip(flows, coeff_rows):
            total += fa * np.polyval(coeffs, fa)
        out[start:start + count] = total
    return out


EXACT_DISTRIBUTION_MAX_STATES = 2_000_000


def exact_random_cost_distribution(game: Game, profile: MixedProfile) -> list:
    """Exact distribution of the realized total cost, by state enumeration.

    Groups that share no arcs have independent realized costs, so their cost
    distributions are enumerated separately and convolved.
    """
    from .solvers import _convolve, _group_components

    comp_dists = []
    for indices in _group_components(game):
        arc_ids = sorted({aid for gi in indices for path in game.groups[gi].paths for aid in path})
        states = {tuple(0 for _ in arc_ids): 1.0}  # arc loads -> probability
        for gi in indices:
            g = game.groups[gi]
            for d, rows in zip(g.demands, profile.probabilities[gi]):
                steps = [(tuple(d if aid in path else 0 for aid in arc_ids), q)
                         for path, q in zip(g.paths, map(float, rows)) if q != 0.0]
                states = _convolve(states, steps, lambda state, step: tuple(map(add, state, step)))
                if len(states) > EXACT_DISTRIBUTION_MAX_STATES:
                    raise BudgetExceededError("state space too large for exact enumeration")
        dist: dict = {}
        for state, p in states.items():
            cost = float(sum(v * game.arcs[aid].value(v) for v, aid in zip(state, arc_ids)))
            dist[cost] = dist.get(cost, 0.0) + p
        comp_dists.append(dist)

    total = {0.0: 1.0}
    for dist in comp_dists:
        total = _convolve(total, dist.items())
        if len(total) > EXACT_DISTRIBUTION_MAX_STATES:
            raise BudgetExceededError("cost support too large for exact convolution")
    return sorted(total.items())


EXACT_DISTRIBUTION_MAX_USERS = 20


def sample_random_poa(game: Game, profile: MixedProfile, plan: SamplingPlan,
                      config: SolverConfig = SolverConfig()) -> RandomPoaDistribution:
    """Distribution of realized total cost over the atomic optimum cost."""
    profile.validate(game)
    so_cost = float(enumerate_atomic_equilibria(game, config).optimum.cost)
    if so_cost <= 0:
        raise ValueError("atomic optimum cost must be positive")
    costs = _sample_total_costs(game, profile, plan)
    exact = []
    if game.n_users <= EXACT_DISTRIBUTION_MAX_USERS:
        exact = [(v / so_cost, p) for v, p in exact_random_cost_distribution(game, profile)]
    return RandomPoaDistribution(samples=costs / so_cost, exact=exact)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def compute_poa_report(game: Game, config: SolverConfig = SolverConfig()) -> PoaReport:
    """All applicable ratios for one game, with solver fallbacks recorded."""
    rho_nat, nonat_ne, nonat_so = nonatomic_pair(game, config)

    atomic_value = None
    equilibria = None
    atomic_status = "ok"
    try:
        equilibria = enumerate_atomic_equilibria(game, config)
        if equilibria.worst is None:
            atomic_status = "unavailable: no atomic equilibrium (weighted game)"
        else:
            atomic_value = equilibria.worst.cost / equilibria.optimum.cost
    except BudgetExceededError:
        br = best_response_atomic(game, config)
        atomic_status = ("unavailable: enumeration budget exceeded; best-response "
                         f"cost {float(br.cost):.6g} is a lower-bound witness")

    mixed_value = None
    mixed_certified = False
    try:
        mixed_ne = solve_mixed_ne_small(game, config)
    except ValueError:  # outside the mixed solver's scope
        mixed_ne = None
    if mixed_ne is None:
        mixed_status = "unavailable: game outside small-solver scope"
    elif equilibria is None:
        mixed_status = "unavailable: enumeration budget exceeded; no atomic optimum"
    else:
        mixed_value, mixed_certified, mixed_status = mixed_poa_small(
            game, config, equilibria, mixed_ne)

    report = PoaReport(
        atomic_poa=atomic_value,
        nonatomic_poa=rho_nat,
        mixed_poa=mixed_value,
        atomic_so_cost=None if equilibria is None else equilibria.optimum.cost,
        nonatomic_so_cost=float(nonat_so.cost),
        atomic_status=atomic_status,
        mixed_status=mixed_status,
        mixed_certified=mixed_certified,
        nonatomic_ne=nonat_ne,
        nonatomic_so=nonat_so,
        mixed_ne=mixed_ne,
    )
    report.validate()
    return report
