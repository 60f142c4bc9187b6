"""Demand families and the per-class limit analysis.

A demand family grows each group's demand as c * n^gamma and fills the
group with users of a fixed granularity.  Groups whose demand grows
without bound are split into classes of equal growth rate; each class gets
a scaling exponent from its path degrees, a limit game with normalized
demands, and a limit equilibrium whose cost predicts the class's share of
the full game's equilibrium cost.  The prediction is compared with
measured costs on an n-grid; what is checked is that the ratios drift
toward 1, not equality at any finite n.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence, Union

from .game import AtomicProfile, CostPolynomial, Game, GameSchemaError, Group, Number, load_game
from .game import _as_number, _as_object

if TYPE_CHECKING:  # the solvers are imported where a family is solved, not on every load
    from .solvers import SolverConfig

WORST_CASE_RESTARTS = 32
# Most users one group of a family instance may hold: far above the grids the
# paper's families use, and an instance this large can still be built.
MAX_INSTANCE_USERS = 1_000_000


def _log(x: Number) -> float:
    """Natural log of a positive number, huge Fractions included."""
    x = Fraction(x)
    return math.log(x.numerator) - math.log(x.denominator)


def _power_law(c: Number, gamma: Number, n: int) -> Number:
    """c * n^gamma: exact when gamma is whole, else a float, which a game
    built from it holds as its exact value."""
    if float(gamma).is_integer():
        return c * Fraction(n) ** int(gamma)
    return float(c) * float(n) ** float(gamma)


class DemandLaw:
    """Per-group demand schedule d(n) = c * n^gamma plus a user granularity.

    Granularity is either a fixed user demand (the group fills with users of
    that size, remainder to one extra user, so the maximum individual demand
    stays bounded) or a user-count law (count_c * n^count_gamma equal users
    splitting d(n), so individual demands may grow or shrink with n).
    ``user_count`` is the pair (count_c, count_gamma).
    """

    def __init__(self, c: Number, gamma: float, user_demand: Optional[Number] = None,
                 user_count: Optional[tuple] = None):
        if not c > 0:
            raise ValueError("demand coefficient c must be > 0")
        if gamma < 0:
            raise ValueError("growth exponent gamma must be >= 0")
        if (user_demand is None) == (user_count is None):
            raise ValueError("exactly one of user_demand / user_count is required")
        if user_demand is not None and not user_demand > 0:
            raise ValueError("user granularity must be > 0")
        if user_count is not None:
            cc, cg = user_count
            if not cc > 0 or cg < 0:
                raise ValueError("user-count law needs c > 0 and gamma >= 0")
        self.c = c
        self.gamma = gamma
        self.user_demand = user_demand
        self.user_count = user_count

    def demand_at(self, n: int) -> Number:
        return _power_law(self.c, self.gamma, n)

    def count_at(self, n: int) -> int:
        return max(1, round(_power_law(*self.user_count, n)))


class DemandFamily:
    def __init__(self, base: Game, laws: Mapping[str, DemandLaw]):
        gids = [g.gid for g in base.groups]
        for gid in laws:
            if gid not in gids:
                raise GameSchemaError(f"demand_laws[{gid}]", f"the game has no group {gid!r}")
        for gid in gids:
            if gid not in laws:
                raise GameSchemaError("demand_laws", f"missing demand law for group {gid!r}")
        self.base = base
        self.laws = laws

    def users_at(self, gid: str, n: int) -> tuple:
        """The ``Group.runs`` of the users realizing d(n) under the group's granularity."""
        law = self.laws[gid]
        demand = law.demand_at(n)
        if law.user_count is not None:
            count = law.count_at(n)
            return ((demand / count, count),)
        v = law.user_demand
        if demand <= v:
            return ((demand, 1),)
        count = int(demand / v)
        remainder = demand - count * v
        if isinstance(remainder, float) and remainder < 1e-9 * float(v):
            remainder = 0
        return ((v, count), (remainder, 1)) if remainder > 0 else ((v, count),)

    def check_scale(self, grid: Sequence[int]) -> None:
        """ValueError unless ``grid`` is a nonempty increasing list of n >= 1
        and each group's demand at its largest n is a finite float of at most
        MAX_INSTANCE_USERS users.  Judged in logs, so gamma = 1e300 never forms
        n^gamma; both grow with n, so the grid's largest n covers the grid."""
        if not grid or grid[0] < 1 or list(grid) != sorted(set(grid)):
            raise ValueError("grid must be a nonempty increasing list of n >= 1")
        n = grid[-1]
        for gid, law in self.laws.items():
            log_demand = _log(law.c) + law.gamma * math.log(n)
            if law.user_count is None:
                log_users = log_demand - _log(law.user_demand)
            else:
                log_users = _log(law.user_count[0]) + law.user_count[1] * math.log(n)
            if log_demand >= math.log(sys.float_info.max):
                raise ValueError(f"demand_laws[{gid}]: demand is not finite at n = {n}")
            if log_users > math.log(MAX_INSTANCE_USERS):
                raise ValueError(f"demand_laws[{gid}]: more than MAX_INSTANCE_USERS = "
                                 f"{MAX_INSTANCE_USERS} users at n = {n}")

    def instantiate(self, n: int) -> Game:
        self.check_scale((n,))
        groups = [Group(g.gid, g.paths, runs=self.users_at(g.gid, n)) for g in self.base.groups]
        return Game(self.base.arcs, groups)


def load_family(document: Union[str, Mapping]) -> DemandFamily:
    """Family document: a game document plus a ``demand_laws`` mapping."""
    import json

    doc = _as_object(json.loads(document) if isinstance(document, str) else document, "$")
    if "demand_laws" not in doc:
        raise GameSchemaError("demand_laws", "missing required key")
    base = load_game(doc)
    laws = {}
    for gid, law in _as_object(doc["demand_laws"], "demand_laws").items():
        where = f"demand_laws[{gid}]"
        c, gamma = _growth(law, where)
        if "user_demand" in law:
            granularity = {"user_demand": _as_number(law["user_demand"], where + ".user_demand")}
        elif "user_count" in law:
            granularity = {"user_count": _growth(law["user_count"], where + ".user_count")}
        else:
            raise GameSchemaError(where, "needs 'user_demand' or 'user_count'")
        try:
            laws[gid] = DemandLaw(c, gamma, **granularity)
        except ValueError as exc:
            raise GameSchemaError(where, str(exc)) from None
    return DemandFamily(base=base, laws=laws)


def _growth(value, where: str) -> tuple:
    """(c, gamma) of a ``{"c", "gamma"}`` law object, gamma as a float."""
    for key in ("c", "gamma"):
        if key not in _as_object(value, where):
            raise GameSchemaError(where, f"missing {key!r}")
    return (_as_number(value["c"], where + ".c"),
            float(_as_number(value["gamma"], where + ".gamma")))


# ---------------------------------------------------------------------------
# Classification and limit machinery
# ---------------------------------------------------------------------------

def classify_groups(family: DemandFamily):
    """Split group ids into demand-unbounded (regular) and bounded (irregular)."""
    regular = [g.gid for g in family.base.groups if family.laws[g.gid].gamma > 0]
    irregular = [g.gid for g in family.base.groups if family.laws[g.gid].gamma == 0]
    return regular, irregular


def ordered_partition(family: DemandFamily) -> list:
    """Regular groups bucketed by equal growth exponent, fastest class first."""
    regular, _ = classify_groups(family)
    by_gamma: dict = {}
    for gid in regular:
        by_gamma.setdefault(float(family.laws[gid].gamma), []).append(gid)
    return [by_gamma[g] for g in sorted(by_gamma, reverse=True)]


def scaling_exponent(game: Game, class_gids: Sequence[str]) -> int:
    """max over class groups of (min over the group's paths of max arc degree)."""
    lam = 0
    for gid in class_gids:
        g = game.groups[game.group_index(gid)]
        cheapest = min(max(game.arcs[aid].degree for aid in path) for path in g.paths)
        lam = max(lam, cheapest)
    return lam


def tight_paths(game: Game, class_gids: Sequence[str], lam: int) -> dict:
    """Per-path labels: tight when the path's largest arc degree is <= lambda.

    Every group of the class has at least one tight path whenever lambda is
    the class's scaling exponent; that is asserted rather than trusted.
    """
    labels = {}
    for gid in class_gids:
        g = game.groups[game.group_index(gid)]
        flags = tuple(max(game.arcs[aid].degree for aid in path) <= lam for path in g.paths)
        if not any(flags):
            raise ValueError(f"group {gid!r} has no tight path for exponent {lam}")
        labels[gid] = flags
    return labels


def limit_game(game: Game, class_gids: Sequence[str], lam: int,
               family: DemandFamily) -> Game:
    """Per-class limit: degree-lambda arcs keep their leading monomial,
    lower-degree arcs become free, and only the ``tight_paths`` are kept.
    Group demands are the class-normalized coefficients (total 1).
    """
    class_total = sum(family.laws[gid].c for gid in class_gids)
    groups = []
    used_arcs: set = set()
    for gid, flags in tight_paths(game, class_gids, lam).items():
        g = game.groups[game.group_index(gid)]
        keep = [path for path, tight in zip(g.paths, flags) if tight]
        demand = family.laws[gid].c / class_total
        groups.append(Group(g.gid, tuple(keep), (demand,)))
        for path in keep:
            used_arcs.update(path)
    arcs = {}
    for aid in game.arc_ids:
        if aid not in used_arcs:
            continue
        poly = game.arcs[aid]
        if poly.degree == lam:
            arcs[aid] = CostPolynomial((poly.coefficients[0],) + (Fraction(0),) * lam)
        else:
            arcs[aid] = CostPolynomial((Fraction(0),) * (poly.degree + 1))
    return Game(arcs, groups, allow_zero_costs=True)


# ---------------------------------------------------------------------------
# Prediction vs. measurement
# ---------------------------------------------------------------------------

class ClassSummary(NamedTuple):
    gids: list
    gamma: float
    lam: int
    demand_coefficient: float  # T_u(n) = coefficient * n^gamma
    limit_cost: float


class PredictionRow(NamedTuple):
    n: int
    total_demand: float
    predicted: float
    class_costs: list  # per class: T_u(n) * g_n * limit cost
    measured_atomic: Optional[float]
    measured_nonatomic: float
    atomic_ratio: Optional[float]
    nonatomic_ratio: float
    atomic_is_lower_bound: bool


class DecompositionReport(NamedTuple):
    classes: list  # ClassSummary, fastest first
    irregular: list
    rows: list  # PredictionRow per grid point


def _philox_words(key: int):
    """The 64-bit words of numpy's ``Philox(key=key)``, key < 2**128: the
    Philox4x64-10 of Salmon et al. (SC 2011) on counters 1, 2, ..., keyed by
    the words ``key mod 2**64`` and ``key >> 64``, four words a counter."""
    mask = 2**64 - 1
    for counter in itertools.count(1):
        c0, c1, c2, c3 = counter, 0, 0, 0
        k0, k1 = key & mask, key >> 64
        for _ in range(10):
            p0, p2 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (p2 >> 64) ^ c1 ^ k0, p2 & mask, (p0 >> 64) ^ c3 ^ k1, p0 & mask
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & mask, (k1 + 0xBB67AE8584CAA73B) & mask
        yield from (c0, c1, c2, c3)


def _restart_start(game: Game, key: int) -> AtomicProfile:
    """The profile numpy's ``Generator(Philox(key=key))`` draws with
    ``integers(0, g.n_paths, size=g.n_users)``, group after group: Lemire's
    bounded draw (ACM TOMACS 2019) on the words' 32-bit halves, low half
    first, a spare half carried over to the next group.  A group of one path
    draws nothing; every group has at most 2**32 paths."""
    halves = (word >> shift & 0xFFFFFFFF for word in _philox_words(key) for shift in (0, 32))
    choices = []
    for g in game.groups:
        picks = [0] * g.n_users if g.n_paths == 1 else []
        while len(picks) < g.n_users:
            m = next(halves) * g.n_paths
            if m & 0xFFFFFFFF >= (2**32 - g.n_paths) % g.n_paths:
                picks.append(m >> 32)
        choices.append(tuple(picks))
    return AtomicProfile(tuple(choices))


def worst_atomic_cost(game: Game, config: SolverConfig):
    """Worst pure-equilibrium cost, whether it is only a lower bound, and the
    atomic optimum cost, as ``(worst, is_lower_bound, optimum)``.

    Exact when enumerable: one scan gives the worst equilibrium (None when
    there is none) and the optimum.  Past the enumeration budget the worst
    cost comes from a best-response search from seeded random starts (a
    lower bound on the true worst case, the searches sharing one lattice)
    and the optimum is None.  Restart i starts where numpy's Philox keyed
    ``config.rng_seed + i`` would, drawn without numpy (``_restart_start``).
    """
    from .solvers import (BudgetExceededError, best_response_atomic, best_response_costs,
                          enumerate_atomic_equilibria)

    try:
        equilibria = enumerate_atomic_equilibria(game, config)
    except BudgetExceededError:
        worst = None
        arcs = best_response_costs(game)
        for i in range(WORST_CASE_RESTARTS):
            start = _restart_start(game, config.rng_seed + i)
            result = best_response_atomic(game, config, start, arcs)
            if result.converged and (worst is None or float(result.cost) > worst):
                worst = float(result.cost)
        return worst, True, None
    worst = None if equilibria.worst is None else float(equilibria.worst.cost)
    return worst, False, float(equilibria.optimum.cost)


def decomposition_prediction(family: DemandFamily, n_grid: Sequence[int],
                             config: SolverConfig) -> DecompositionReport:
    """Predicted equilibrium cost sum_u T_u(n) g_n(u) C_u versus measured costs.

    The prediction adds, per class, total demand times scaling factor times
    the limit-equilibrium cost.  Measured worst pure-equilibrium and
    non-atomic equilibrium costs of the instantiated game are reported as
    ratios against the prediction; the ratios approaching 1 along the grid
    is the property of interest.
    """
    from .solvers import require_converged, solve_nonatomic_ne

    partition = ordered_partition(family)
    if not partition:
        raise ValueError("family has no group with growing demand")
    family.check_scale(n_grid)

    classes = []
    for gids in partition:
        lam = scaling_exponent(family.base, gids)
        lim = limit_game(family.base, gids, lam, family)
        classes.append(ClassSummary(
            gids=gids,
            gamma=float(family.laws[gids[0]].gamma),
            lam=lam,
            demand_coefficient=float(sum(family.laws[gid].c for gid in gids)),
            limit_cost=float(require_converged(solve_nonatomic_ne(lim, config),
                                               f"limit game of {', '.join(gids)}").cost),
        ))
    _, irregular = classify_groups(family)

    rows = []
    for n in n_grid:
        game = family.instantiate(n)
        class_costs = []
        for cls in classes:
            t_u = cls.demand_coefficient * float(n) ** cls.gamma
            g_n = t_u ** cls.lam
            class_costs.append(t_u * g_n * cls.limit_cost)
        predicted = sum(class_costs)
        measured_nonatomic = float(require_converged(solve_nonatomic_ne(game, config),
                                                     f"n={n}").cost)
        measured_atomic, is_lb, _ = worst_atomic_cost(game, config)
        rows.append(PredictionRow(
            n=n,
            total_demand=float(game.total_demand),
            predicted=predicted,
            class_costs=class_costs,
            measured_atomic=measured_atomic,
            measured_nonatomic=measured_nonatomic,
            atomic_ratio=None if measured_atomic is None else measured_atomic / predicted,
            nonatomic_ratio=measured_nonatomic / predicted,
            atomic_is_lower_bound=is_lb,
        ))
    return DecompositionReport(classes=classes, irregular=irregular, rows=rows)
