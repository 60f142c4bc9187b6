"""Equilibrium and optimum computation.

Non-atomic problems are solved by conditional-gradient descent on the
Beckmann potential (equilibria) or on total cost via marginal costs
(optima): each step moves flow of one group from its costliest used path
toward its cheapest path, both read from per-group heaps, with the step
length found by bisecting the derivative of the 1-D convex restriction.
That derivative is monotone in floats too, so the bisection is replayed
from a located root, with few evaluations and the same bits.  Atomic
problems are solved exactly: exhaustive enumeration over user-class
assignments when the state space fits the budget, best-response dynamics
otherwise.  Every game holds Fractions, so both run on one integer lattice
(``_ArcCosts``): arc loads are whole numbers of demand units, each arc's
scaled cost is an integer, tabulated once or computed per read, and a
cost becomes a Fraction only when it is recorded.  A large component is
scanned in numpy blocks (``blockscan``), with the same results.  Mixed
equilibria on small two-path-per-group games are found by per-group
bisection of the expected-cost indifference condition, with expectations
computed by exact convolution over the users touching each arc.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
import time
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import add, getitem, mul
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .game import (
    AtomicProfile,
    CostPolynomial,
    Game,
    MixedProfile,
    Number,
    PathFlow,
    _horner,
    arc_users,
)

USED_PATH_REL_TOL = Fraction(1, 10**12)  # f_p > 1e-12 * d_k counts as used


class BudgetExceededError(RuntimeError):
    """The exact state space is larger than the configured enumeration budget."""


class SolverConfig:
    """Solver settings, checked when built; equal when every setting is.
    A changed copy is ``SolverConfig(**{**vars(config), name: value})``."""

    def __init__(self, tolerance: float = 1e-9, max_iterations: int = 100_000,
                 rng_seed: int = 0, enumeration_budget: int = 10_000_000):
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
        if enumeration_budget < 1:
            raise ValueError("enumeration budget must be >= 1")
        if not 0 <= rng_seed < 2**64:  # so seed + restart is a Philox key (< 2**128)
            raise ValueError(f"seed must be in 0 .. 2**64 - 1, got {rng_seed}")
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.rng_seed = rng_seed
        self.enumeration_budget = enumeration_budget

    def __eq__(self, other):
        return type(other) is SolverConfig and vars(other) == vars(self)

    def __hash__(self):
        return hash(tuple(vars(self).values()))


class EquilibriumResult:
    def __init__(self, flow, kind: str, residual: float, iterations: int, exact: bool,
                 converged: bool = True, cost: Optional[Number] = None, note: str = "",
                 wall_time: float = 0.0):
        if isinstance(cost, float) and not math.isfinite(cost):
            raise OverflowError(f"{kind} cost {cost} is not a finite float")
        self.flow = flow  # PathFlow, AtomicProfile, or MixedProfile
        self.kind = kind  # nonatomic-ne | nonatomic-so | atomic-ne | atomic-so | mixed-ne
        self.residual = residual
        self.iterations = iterations
        self.exact = exact
        self.converged = converged
        self.cost = cost
        self.note = note
        self.wall_time = wall_time

    def to_document(self, game: Game) -> dict:
        """The result of a non-atomic or a mixed solve, as report.json records it."""
        if isinstance(self.flow, PathFlow):
            flow_doc = {f"{game.groups[gi].gid}/{pi}": float(v) for (gi, pi), v in self.flow.items()}
        else:
            flow_doc = {game.groups[gi].gid: [[float(p) for p in row] for row in rows]
                        for gi, rows in enumerate(self.flow.probabilities)}
        return {
            "kind": self.kind,
            "flow": flow_doc,
            "residual": float(self.residual),
            "iterations": self.iterations,
            "exact": self.exact,
            "converged": self.converged,
            "cost": None if self.cost is None else float(self.cost),
            "note": self.note,
            "wall_time": self.wall_time,
        }


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def verify_wardrop(game: Game, flow: PathFlow) -> float:
    """Worst per-group gap between the costliest used path and the cheapest path.

    A path counts as used when its flow exceeds 1e-12 times the group demand.
    The gap is 0 exactly when the flow satisfies the first principle: every
    used path is a cheapest path of its group.
    """
    arc_costs = game.arc_cost_map(flow)
    return _worst_used_gap(game, flow, {(gi, pi): game.path_cost(flow, gi, pi, arc_costs)
                                        for gi, pi in game.path_keys})


def _used_bound(total_demand: Number) -> tuple:
    """``(exact, bound)``: a path flow f is used when f > exact = total_demand *
    USED_PATH_REL_TOL, a float f when f > bound.  Floats above (below) t, the
    float nearest exact, are above (below) it: bound is t, or below t if t > exact."""
    exact = total_demand * USED_PATH_REL_TOL
    t = float(min(exact, sys.float_info.max))
    return exact, t if t <= exact else math.nextafter(t, -math.inf)


def _worst_used_gap(game: Game, flow: PathFlow, path_costs: Mapping) -> float:
    """Largest ``path_costs[gi, pi]`` of a used path (``_used_bound``) above its group's cheapest."""
    worst = 0.0
    for gi, g in enumerate(game.groups):
        exact, bound = _used_bound(g.total_demand)
        costs = [path_costs[gi, pi] for pi in range(g.n_paths)]
        cheapest = min(costs)
        for pi, c in enumerate(costs):
            f = flow.value(gi, pi)
            if f > bound if isinstance(f, float) else f > exact:
                worst = max(worst, float(c - cheapest))
    return worst


def epsilon_ne_residual(game: Game, flow: PathFlow) -> Number:
    """Largest variational-inequality violation over all feasible flows.

    The maximum of sum_a tau_a(f_a) (f_a - f'_a) over feasible f' is linear
    in f', so the optimum sits at a vertex: each group routes everything on
    its cheapest path.  The residual is therefore
    sum_k ( sum_p f_p tau_p(f) - d_k min_p tau_p(f) ), which is 0 exactly
    at a non-atomic equilibrium.
    """
    for gi, g in enumerate(game.groups):
        s = sum(flow.value(gi, pi) for pi in range(g.n_paths))
        if abs(s - g.total_demand) > 1e-9 * (1 + abs(float(g.total_demand))):
            raise ValueError(f"infeasible flow: group {g.gid!r} routes {s} of {g.total_demand}")
    arc_costs = game.arc_cost_map(flow)
    total = 0
    for gi, g in enumerate(game.groups):
        costs = [game.path_cost(flow, gi, pi, arc_costs) for pi in range(g.n_paths)]
        routed = sum(flow.value(gi, pi) * costs[pi] for pi in range(g.n_paths))
        total += routed - g.total_demand * min(costs)
    return total


# ---------------------------------------------------------------------------
# Non-atomic solvers (conditional gradient with exact line search)
# ---------------------------------------------------------------------------

class _GroupPicks:
    """One group's move: its costliest used and its cheapest path slot.

    Two heaps under lazy invalidation hold the candidates: ``cheap`` keyed
    by (cost, slot) and ``dear``, the used slots, by (-cost, slot).  A
    group's slots are consecutive, so these keys pick the first cheapest
    slot and, among the costliest used, the first, as a scan in slot order
    does.  An entry counts only while its cost is the slot's current cost
    (and, in ``dear``, while the slot is used); every slot whose cost or
    flow a move changes is pushed again.  The heaps are rebuilt once they
    hold more than eight entries per slot between them, so their size stays
    O(slots) however many moves a solve makes.
    """

    def __init__(self, slots: list, used_thresh: float, costs: list, flows: list):
        self.slots, self.used_thresh = slots, used_thresh
        self.costs, self.flows = costs, flows  # the solve's lists, read at each pick
        self.rebuild()

    def rebuild(self):
        costs, flows = self.costs, self.flows
        self.cheap = [(costs[i], i) for i in self.slots]
        self.dear = [(-costs[i], i) for i in self.slots if flows[i] > self.used_thresh]
        heapq.heapify(self.cheap)
        heapq.heapify(self.dear)

    def push(self, i: int):
        cost = self.costs[i]
        heapq.heappush(self.cheap, (cost, i))
        if self.flows[i] > self.used_thresh:
            heapq.heappush(self.dear, (-cost, i))
        if len(self.cheap) + len(self.dear) > 8 * len(self.slots):
            self.rebuild()

    def move(self, tolerance: float) -> Optional[tuple]:
        """(costliest used slot, cheapest slot), or None when their cost gap
        is within ``tolerance`` of the cheapest cost."""
        costs, flows, cheap, dear = self.costs, self.flows, self.cheap, self.dear
        while cheap[0][0] != costs[cheap[0][1]]:
            heapq.heappop(cheap)
        while dear[0][0] != -costs[dear[0][1]] or not flows[dear[0][1]] > self.used_thresh:
            heapq.heappop(dear)
        low, dst = cheap[0]
        src = dear[0][1]
        if costs[src] - low <= tolerance * (1.0 + abs(low)):
            return None
        return src, dst


def _equilibrate(game: Game, config: SolverConfig, polys: Mapping[str, CostPolynomial],
                 start: Optional[PathFlow], kind: str) -> EquilibriumResult:
    """Drive every group's path costs (w.r.t. ``polys``) to equality.

    Each move is a conditional-gradient step restricted to one group: shift
    mass from the group's costliest used path toward its cheapest path (both
    read from ``_GroupPicks``' heaps), the amount fixed by bisecting the
    monotone derivative of the underlying convex objective along that
    segment (``_segment_step``).  The cost of the final flow is Horner's rule
    on ``float_coefficients``: Fraction-float arithmetic converts the Fraction
    first, so each step has the bits of ``Game.total_cost`` at a float load.
    """
    t0 = time.perf_counter()
    for g in game.groups:  # a group with no used path has no move to start from
        if g.n_paths > 1 and not float(g.total_demand) > 0.0:
            raise ZeroDivisionError(f"group {g.gid!r} demand {float(g.total_demand)} "
                                    "is not above 0 as a float")
    direction_polys = {aid: p.float_coefficients for aid, p in polys.items()}
    keys = game.path_keys
    gpaths = {(gi, pi): game.groups[gi].paths[pi] for gi, pi in keys}
    group_slots = [[i for i, key in enumerate(keys) if key[0] == gi]
                   for gi in range(len(game.groups))]

    if start is None:
        flows = [0.0] * len(keys)
        for gi, g in enumerate(game.groups):
            flows[group_slots[gi][0]] = float(g.total_demand)
    else:
        flows = [float(v) for v in start.values()]

    arc_flow = {aid: 0.0 for aid in game.arc_ids}
    arc_slots = {aid: [] for aid in game.arc_ids}  # the slots whose path crosses an arc
    for i, key in enumerate(keys):
        for aid in gpaths[key]:
            arc_flow[aid] += flows[i]
            arc_slots[aid].append(i)

    def path_cost(i: int) -> float:
        return sum(_horner(direction_polys[aid], arc_flow[aid]) for aid in gpaths[keys[i]])

    slot_costs = [path_cost(i) for i in range(len(keys))]  # kept current by every move
    picks = [_GroupPicks(slots, _used_bound(g.total_demand)[1], slot_costs, flows)
             for g, slots in zip(game.groups, group_slots)]
    slot_picks = [picks[gi] for gi, _ in keys]
    movable = [group for group in picks if len(group.slots) > 1]
    moves = 0
    converged = False
    budget = config.max_iterations
    tolerance = config.tolerance
    while moves < budget:
        for group in movable:
            for _ in range(len(group.slots) * 8):
                move = moves < budget and group.move(tolerance)
                if not move:
                    break
                src, dst = move
                src_arcs, dst_arcs = gpaths[keys[src]], gpaths[keys[dst]]
                src_only = [aid for aid in src_arcs if aid not in dst_arcs]
                dst_only = [aid for aid in dst_arcs if aid not in src_arcs]
                amount = _segment_step(src_only, dst_only, arc_flow, direction_polys, flows[src])
                for slot, moved, step in ((src, src_only, -amount), (dst, dst_only, amount)):
                    flows[slot] += step
                    for aid in moved:
                        arc_flow[aid] += step
                # Only the paths crossing a moved arc change cost; recost them in arc order.
                recosted = dict.fromkeys(i for aid in src_only + dst_only for i in arc_slots[aid])
                for i in recosted:
                    slot_costs[i] = path_cost(i)
                for i in (*recosted, src, dst):  # src and dst changed flow, maybe not cost
                    slot_picks[i].push(i)
                moves += 1
        if all(group.move(tolerance) is None for group in movable):
            converged = True
            break

    flow = PathFlow(game, [max(v, 0.0) for v in flows])
    fa = game.arc_flow(flow)
    dir_costs = {aid: _horner(direction_polys[aid], float(fa[aid])) for aid in game.arc_ids}
    path_costs = {key: sum(dir_costs[aid] for aid in gpaths[key]) for key in keys}
    residual = _worst_used_gap(game, flow, path_costs)
    cost = sum(v * _horner(game.arcs[aid].float_coefficients, v) for aid, v in fa.items())
    note = "" if converged else f"move budget {budget} spent"
    # The line search can strand costly flow on a steep arc below the used threshold.
    for group in movable:
        cheapest = min(path_costs[keys[i]] for i in group.slots)
        if converged and not all(
                flows[i] * (path_costs[keys[i]] - cheapest) <= tolerance * cost
                for i in group.slots if flows[i] <= group.used_thresh):
            converged = False
            note = "flow stranded below the used threshold on a costlier path"
    return EquilibriumResult(flow=flow, kind=kind, residual=float(residual),
                             iterations=moves, exact=False, converged=converged,
                             cost=cost, note=note, wall_time=time.perf_counter() - t0)


def _segment_step(src_only, dst_only, arc_flow, polys, available: float) -> float:
    """Exact line search: bisect the derivative of the objective along the move.

    ``slope(m)``, the derivative after moving m, is bisected over
    [0, available] for 80 halvings or until the bracket is 1e-12 *
    max(1, available) wide.  Every coefficient is >= 0, and float rounding
    is monotone, so ``slope`` never falls as m grows while every Horner
    argument is >= 0: when every source arc keeps ``flow - available >=
    0.0`` and every target arc ``flow >= 0.0``.  Then a halving at m <=
    ``below``, a point where the slope is known to be <= 0, must move its
    low end, and one at m >= ``above``, where it is known to be > 0, its
    high end.  ``_bracket_root`` finds such points a fraction of the final
    width apart, and the halvings between them are replayed without a
    slope call, to the bits of the plain bisection.  Otherwise every
    halving calls ``slope``.
    """

    def slope(m: float) -> float:
        # Each sum adds left to right, so it is monotone in each term.
        gain = loss = 0.0
        for a in dst_only:
            gain += _horner(polys[a], arc_flow[a] + m)
        for a in src_only:
            loss += _horner(polys[a], arc_flow[a] - m)
        return gain - loss

    hi = available
    top = slope(hi)
    if not math.isfinite(top):
        raise OverflowError(f"path cost gap {top} of a full move is not a finite float")
    if top <= 0.0:
        return hi
    width = 1e-12 * max(1.0, available)
    below, above = -math.inf, math.inf
    if (all(arc_flow[a] - available >= 0.0 for a in src_only)
            and all(arc_flow[a] >= 0.0 for a in dst_only)):
        below, above = _bracket_root(slope, available, top, width)
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= below or mid < above and slope(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= width:
            break
    return 0.5 * (lo + hi)


def _bracket_root(slope: Callable, available: float, top: float, width: float) -> tuple:
    """(below, above) with ``slope(below) <= 0 < slope(above)``, 0 <= below <
    above <= available, for a nondecreasing ``slope`` with ``slope(available)
    == top > 0``; below is -inf when ``slope(0.0) > 0``.

    Illinois regula falsi locates the root, stopping on a step under
    width / 16 or on a secant that leaves the bracket, whose end is then the
    estimate.  Points width / 4 on either side of the estimate, widening by
    4 until each side's sign is known, then close the bracket.
    """
    a, fa, b, fb = 0.0, slope(0.0), available, top
    if fa > 0.0:
        return -math.inf, 0.0
    x, side = a, 0
    while True:
        # Halve instead when a source arc overflows at m = 0 (fa is -inf), or
        # when both values are 0 and the secant would divide by zero.
        m = b - fb * (b - a) / (fb - fa) if -math.inf < fa < fb else 0.5 * (a + b)
        if not a < m < b:
            x = a if m <= a else b
            break
        fm = slope(m)
        step, x = abs(m - x), m
        if fm <= 0.0:
            a, fa = m, fm
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = m, fm
            if side > 0:
                fa *= 0.5
            side = 1
        if step < width / 16:
            break
    reach = width / 4
    while x + reach < b:
        if slope(x + reach) > 0.0:
            b = x + reach
        else:
            a = x + reach
            reach *= 4
    reach = width / 4
    while x - reach > a:
        if slope(x - reach) <= 0.0:
            a = x - reach
        else:
            b = x - reach
            reach *= 4
    return a, b


def solve_nonatomic_ne(game: Game, config: SolverConfig = SolverConfig(),
                       start: Optional[PathFlow] = None) -> EquilibriumResult:
    """Non-atomic equilibrium: minimize the Beckmann potential over feasible flows."""
    return _equilibrate(game, config, game.arcs, start, "nonatomic-ne")


def solve_nonatomic_so(game: Game, config: SolverConfig = SolverConfig(),
                       start: Optional[PathFlow] = None) -> EquilibriumResult:
    """Non-atomic optimum: minimize total cost, i.e. equilibrate marginal costs."""
    marginals = {aid: p.marginal for aid, p in game.arcs.items()}
    return _equilibrate(game, config, marginals, start, "nonatomic-so")


def require_converged(result: EquilibriumResult, where: str = "") -> EquilibriumResult:
    """``result`` of a non-atomic solve; RuntimeError if it did not converge,
    naming its kind, moves, residual and note, after ``where`` if given."""
    if not result.converged:
        detail = (f"{result.kind} did not converge (iterations {result.iterations}, "
                  f"residual {result.residual:.3g})" + (f": {result.note}" if result.note else ""))
        raise RuntimeError(f"{where}: {detail}" if where else detail)
    return result


# ---------------------------------------------------------------------------
# Atomic enumeration
# ---------------------------------------------------------------------------

def _group_components(game: Game) -> list:
    """Partition group indices into components linked by shared arcs."""
    n = len(game.groups)
    arc_owner: dict[str, int] = {}
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for gi, g in enumerate(game.groups):
        for path in g.paths:
            for aid in path:
                if aid in arc_owner:
                    union(arc_owner[aid], gi)
                else:
                    arc_owner[aid] = gi
    comps: dict[int, list] = {}
    for gi in range(n):
        comps.setdefault(find(gi), []).append(gi)
    return [sorted(v) for _, v in sorted(comps.items())]


class _UserClass(NamedTuple):
    gi: int
    demand: Fraction
    size: int  # the group's users of this demand


def _user_classes(game: Game, group_indices: Sequence[int]) -> list:
    """Per group, one class per distinct demand, in order of first use, read
    from the group's runs: a group of equal users is one run, whatever its size."""
    classes = []
    for gi in group_indices:
        sizes: dict = {}
        for d, count in game.groups[gi].runs:
            sizes[d] = sizes.get(d, 0) + count
        classes += [_UserClass(gi, d, size) for d, size in sizes.items()]
    return classes


def _compositions(total: int, parts: int):
    """All ways to split ``total`` identical users over ``parts`` paths."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _class_state_count(game: Game, classes: Sequence[_UserClass]) -> int:
    return math.prod(comb(cls.size + game.groups[cls.gi].n_paths - 1, cls.size) for cls in classes)


LATTICE_MAX_ROWS = 1 << 18  # cost-table rows one lattice may hold, summed over its arcs
LATTICE_ROWS_PER_READ = 16  # and rows per cost its solver is sure to read


class _Evaluated:
    """Coefficients read like a cost table: ``self[x]`` is Horner's rule at x."""

    def __init__(self, coeffs: Sequence):
        self.coeffs = coeffs

    def __getitem__(self, x: Number) -> Number:
        return _horner(self.coeffs, x)


class _ArcCosts(NamedTuple):
    """Arc loads and arc costs as the atomic solvers add and compare them.

    Arcs are numbered; ``tables[a][K]`` is the cost of arc a at load K, and
    an empty arc's load is 0.  On the integer lattice, a load is a whole
    number K of units 1/L, where L is the LCM of the users' demand
    denominators, and the table holds the integers ``tau_a(K / L) * M``,
    with M = D * L**maxdeg and D the LCM of the coefficient denominators.
    Costs are then integers scaled by the common factor M, so sums and
    ``<`` decide exactly as in Fraction arithmetic, and ``value`` turns a
    sum of load times cost back into ``Fraction(total, L * M)``.
    """

    units: dict  # user demand -> load that user puts on an arc
    tables: list  # per arc: load -> cost, by indexing
    denominator: int  # L * M

    def value(self, total: int) -> Fraction:
        """The total cost whose sum of load times scaled cost is ``total``."""
        return Fraction(total, self.denominator)

    def deviation_cost(self, loads, costs, here, path, step) -> Number:
        """Cost of ``path`` to a user of load ``step`` now on the arc set ``here``.

        Arcs of ``path`` in ``here`` keep their cost ``costs[a]``; the others
        carry the user's load on top of ``loads[a]``.
        """
        tables = self.tables
        total = 0
        for a in path:
            total += costs[a] if a in here else tables[a][loads[a] + step]
        return total


class _Lattice(NamedTuple):
    """The integers of a game's lattice over some users' classes and
    arcs (see ``_ArcCosts``): each demand's units, each arc's scaled integer
    coefficients (highest degree first) and reach (the most units the users
    can put on it), and the denominator L * M that turns a sum of load times
    scaled cost into the total cost."""

    units: dict  # user demand -> its whole number of units 1/L
    scaled: list  # per arc
    reach: list  # per arc
    denominator: int


def _lattice(game: Game, classes: Sequence[_UserClass], arc_ids: Sequence[str]) -> _Lattice:
    polys = [game.arcs[aid] for aid in arc_ids]
    scale = math.lcm(*(cls.demand.denominator for cls in classes))
    units = {cls.demand: int(cls.demand * scale) for cls in classes}
    degree = max(p.degree for p in polys)
    common = math.lcm(*(c.denominator for p in polys for c in p.coefficients))
    # Per arc, the coefficient of K**e, scaled by common * scale**(degree - e).
    scaled = [[int(c * common) * scale ** (degree - p.degree + i)
               for i, c in enumerate(p.coefficients)] for p in polys]
    reach = dict.fromkeys(arc_ids, 0)
    for cls in classes:
        for aid in {aid for path in game.groups[cls.gi].paths for aid in path}:
            reach[aid] += units[cls.demand] * cls.size
    return _Lattice(units, scaled, list(reach.values()), scale * common * scale ** degree)


def _arc_costs(game: Game, classes: Sequence[_UserClass], arc_ids: Sequence[str],
               reads: int) -> _ArcCosts:
    """The integer lattice of ``arc_ids`` over the users of ``classes``.

    An arc's table covers every load the users can put on it: K = 0 .. the
    arc's reach.  That covers deviations too, since a user moving onto an
    arc was not on it.  The rows are computed on each read, by Horner's rule
    on the same scaled integer coefficients, when the tables would hold more
    than LATTICE_MAX_ROWS rows, or more than LATTICE_ROWS_PER_READ rows per
    arc cost the caller is sure to read (``reads``): a row costs a small
    fraction of one read, so tables never cost much more than the reads they
    replace.  The row count is computed before any table is built.
    """
    lattice = _lattice(game, classes, arc_ids)
    if sum(lattice.reach) + len(arc_ids) > min(LATTICE_MAX_ROWS, LATTICE_ROWS_PER_READ * reads):
        tables = [_Evaluated(coeffs) for coeffs in lattice.scaled]
    else:
        tables = [[_horner(coeffs, k) for k in range(reach + 1)]
                  for reach, coeffs in zip(lattice.reach, lattice.scaled)]
    return _ArcCosts(lattice.units, tables, lattice.denominator)


def _numbered_paths(paths: Sequence[tuple], arc_ids: Sequence[str]) -> tuple:
    """``paths`` with each arc id replaced by its position in ``arc_ids``."""
    position = {aid: a for a, aid in enumerate(arc_ids)}
    return tuple(tuple(position[aid] for aid in path) for path in paths)


# States from which a component is scanned in numpy blocks.  With
# numpy loaded, the block scan was faster on every component measured from
# 81 states on, and slower on some of 15 to 72 states.
VECTOR_MIN_STATES = 128


class _ComponentScan:
    """Exhaustive scan over count-based atomic states of one component.

    States run over the classes' per-path counts, class 0 outermost, each
    class's counts in ``_compositions``' order.
    """

    def __init__(self, game: Game, group_indices: Sequence[int]):
        self.game = game
        self.groups = list(group_indices)
        self.classes = _user_classes(game, group_indices)
        self.arc_ids = sorted({aid for gi in group_indices
                               for path in game.groups[gi].paths for aid in path})
        self.representatives: dict = {}  # assignment tuple -> ``representative``

    @cached_property
    def arcs(self) -> _ArcCosts:
        """Built on first use, so a state space past the budget builds no table.

        Each state reads every arc's cost.
        """
        return _arc_costs(self.game, self.classes, self.arc_ids,
                          self.state_count() * len(self.arc_ids))

    @cached_property
    def moves(self) -> list:
        """Per class: its group's numbered paths, their arc sets, the other
        paths of each path, and one user's load."""
        moves = []
        for cls in self.classes:
            paths = _numbered_paths(self.game.groups[cls.gi].paths, self.arc_ids)
            others = [paths[:pi] + paths[pi + 1:] for pi in range(len(paths))]
            moves.append((paths, [set(path) for path in paths], others,
                          self.arcs.units[cls.demand]))
        return moves

    def state_count(self) -> int:
        return _class_state_count(self.game, self.classes)

    def search(self) -> tuple:
        """``(found, cheapest, cheapest_cost)``: the equilibria in state order,
        each as (representative, cost), and the assignment and cost of the
        first state of least total cost.

        A component of at least VECTOR_MIN_STATES states is scanned in numpy
        blocks when every load, cost and sum that scan forms fits in int64:
        each is at most sum_a reach_a * tau_a(reach_a) on the lattice, since
        coefficients are >= 0.  Any other component is scanned state by
        state.  Both give the same results.
        """
        if self.state_count() >= VECTOR_MIN_STATES:
            lattice = _lattice(self.game, self.classes, self.arc_ids)
            if sum(r * _horner(c, r) for r, c in zip(lattice.reach, lattice.scaled)) < 1 << 62:
                from .blockscan import scan_blocks  # with numpy, loaded for a large scan only

                return scan_blocks(self, lattice)
        arcs = self.arcs
        found: list = []
        cheapest = None

        def visit(assignment, loads):
            nonlocal cheapest
            costs = list(map(getitem, arcs.tables, loads))
            cost = sum(map(mul, loads, costs))
            if cheapest is None or cost < cheapest[1]:
                cheapest = (assignment, cost)
            if self.is_equilibrium(assignment, loads, costs):
                found.append((self.representative(assignment), arcs.value(cost)))

        self.scan(visit)
        return found, cheapest[0], arcs.value(cheapest[1])

    def scan(self, visit: Callable):
        """Call ``visit(assignment, loads)`` for every count state.

        ``assignment`` holds each class's per-path count tuple, in class
        order, and ``loads`` the arcs' loads in ``arc_ids`` order (see
        ``_ArcCosts``).  A class comes off by shifting its negated load.
        """
        loads = [0] * len(self.arc_ids)
        moves = self.moves

        def shift(paths, counts, load):
            for path, c in zip(paths, counts):
                if c:
                    add = load * c
                    for a in path:
                        loads[a] += add

        def rec(ci: int, assignment: tuple):
            if ci == len(moves):
                visit(assignment, loads)
                return
            paths, _, _, load = moves[ci]
            for counts in _compositions(self.classes[ci].size, len(paths)):
                shift(paths, counts, load)
                rec(ci + 1, assignment + (counts,))
                shift(paths, counts, -load)

        rec(0, ())

    def is_equilibrium(self, assignment, loads, costs) -> bool:
        """No user class can strictly improve by a unilateral path change.

        ``costs`` lists the state's arc costs, in the order of ``loads``.
        """
        deviation_cost = self.arcs.deviation_cost
        for counts, (paths, arc_sets, others, load) in zip(assignment, self.moves):
            for pi, c in enumerate(counts):
                if c:
                    here = arc_sets[pi]
                    stay_cost = sum(map(costs.__getitem__, paths[pi]))
                    for path in others[pi]:
                        if deviation_cost(loads, costs, here, path, load) < stay_cost:
                            return False
        return True

    def representative(self, assignment) -> dict:
        """Per group, the tuple of user choices realizing the counts (each
        class's users take its paths in user order, run by run).  Built once
        per state, so results that share a state (the optimum is often an
        equilibrium) share its tuples."""
        key = tuple(assignment)
        if key not in self.representatives:
            choices = {(cls.gi, cls.demand): itertools.chain.from_iterable(
                map(itertools.repeat, itertools.count(), counts))
                for cls, counts in zip(self.classes, assignment)}
            self.representatives[key] = {gi: tuple(itertools.chain.from_iterable(
                itertools.islice(choices[gi, d], count) for d, count in self.game.groups[gi].runs))
                for gi in self.groups}
        return self.representatives[key]


class AtomicEquilibria(NamedTuple):
    """All pure equilibria of a game and its atomic optimum, from one exact scan.

    ``equilibria`` lists one representative per user-symmetry class;
    ``worst`` is the costliest.  ``equilibria`` is empty, and ``worst`` is
    None, when the game (necessarily weighted) has no pure equilibrium.
    ``equilibria`` is also left empty when the components' equilibria
    combine in more than 100,000 ways, with ``worst`` still set.
    ``optimum`` is the cheapest state (kind ``atomic-so``), set whether or
    not equilibria exist.
    """

    equilibria: list
    worst: Optional[EquilibriumResult]
    states_scanned: int
    optimum: EquilibriumResult


def enumerate_atomic_equilibria(game: Game, config: SolverConfig = SolverConfig()) -> AtomicEquilibria:
    """Exhaustively test the unilateral-deviation predicate over all states.

    Users of equal demand within a group are interchangeable, so states are
    enumerated as per-class path counts; groups that share no arcs are
    enumerated independently and recombined.  The same scan keeps the first
    state of strictly least total cost, the atomic optimum.  Raises
    BudgetExceededError when the summed state count of the components
    exceeds the configured budget (callers should fall back to best-response
    dynamics).
    """
    t0 = time.perf_counter()
    comps = [_ComponentScan(game, idxs) for idxs in _group_components(game)]
    scanned_budget = 0
    for comp in comps:
        n = comp.state_count()
        scanned_budget += n
        if scanned_budget > config.enumeration_budget:
            raise BudgetExceededError(
                f"state space needs {scanned_budget}+ states, budget is "
                f"{config.enumeration_budget}")

    per_comp: list[list] = []
    so_picks: dict[int, tuple] = {}
    so_cost = 0
    scanned = 0
    for comp in comps:
        found, cheapest, cheapest_cost = comp.search()
        scanned += comp.state_count()
        per_comp.append(found)
        so_picks.update(comp.representative(cheapest))
        so_cost += cheapest_cost

    def profile_of(picks) -> AtomicProfile:
        return AtomicProfile(tuple(tuple(picks[gi]) for gi in range(len(game.groups))))

    optimum = EquilibriumResult(flow=profile_of(so_picks), kind="atomic-so", residual=0.0,
                                iterations=scanned, exact=True, cost=so_cost,
                                wall_time=time.perf_counter() - t0)
    if any(not found for found in per_comp):
        return AtomicEquilibria([], None, scanned, optimum)

    def combine(combo, note=""):
        # Components share no arcs, so their choices merge and their costs add.
        picks = {}
        for rep, _ in combo:
            picks.update(rep)
        return EquilibriumResult(flow=profile_of(picks), kind="atomic-ne", residual=0.0,
                                 iterations=scanned, exact=True, cost=sum(c for _, c in combo),
                                 note=note, wall_time=time.perf_counter() - t0)

    worst = combine([max(found, key=lambda e: e[1]) for found in per_comp], "worst")
    results = []
    if math.prod(map(len, per_comp)) <= 100_000:
        results = [combine(combo) for combo in itertools.product(*per_comp)]
    return AtomicEquilibria(results, worst, scanned, optimum)


def solve_atomic_so(game: Game, config: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Exact minimizer of total cost over all atomic states.

    The optimum found by ``enumerate_atomic_equilibria``'s scan; callers that
    also need the equilibria should take ``.optimum`` from that one call.
    """
    return enumerate_atomic_equilibria(game, config).optimum


# ---------------------------------------------------------------------------
# Best-response dynamics
# ---------------------------------------------------------------------------

def best_response_costs(game: Game) -> _ArcCosts:
    """The lattice and cost tables ``best_response_atomic`` reads on ``game``: a first
    round reads every arc's cost, then one deviation per user and other path."""
    return _arc_costs(game, _user_classes(game, range(len(game.groups))), game.arc_ids,
                      game.n_arcs + sum(g.n_users * (g.n_paths - 1) for g in game.groups))


def best_response_atomic(game: Game, config: SolverConfig = SolverConfig(),
                         initial: Optional[AtomicProfile] = None,
                         arcs: Optional[_ArcCosts] = None) -> EquilibriumResult:
    """Iterate single-user best responses until no user can strictly improve.

    Ties break toward the currently used path, then the lowest path index,
    so runs are deterministic.  Guaranteed to terminate on unweighted games
    (potential descent); weighted games may cycle, in which case the budget
    expires and the best iterate is returned flagged as non-converged.
    ``arcs`` is ``best_response_costs(game)``, built here unless given.
    """
    t0 = time.perf_counter()
    if initial is None:
        initial = AtomicProfile(tuple((0,) * g.n_users for g in game.groups))
    initial.validate(game)

    arcs = best_response_costs(game) if arcs is None else arcs
    user_loads = [[arcs.units[d] for d in g.demands] for g in game.groups]
    paths = [_numbered_paths(g.paths, game.arc_ids) for g in game.groups]
    arc_sets = [[set(path) for path in group_paths] for group_paths in paths]
    choices = [list(picks) for picks in initial.choices]
    loads = [0] * game.n_arcs
    for gi, group_paths in enumerate(paths):
        for ui, d in enumerate(user_loads[gi]):
            for a in group_paths[choices[gi][ui]]:
                loads[a] += d
    costs = list(map(getitem, arcs.tables, loads))

    moves = 0
    # (group, load, path) -> moves when such a user last stayed: until the
    # next move, another such user would read the same costs, so it is skipped.
    stayed = {}
    converged = False
    while moves <= config.max_iterations:
        improved = False
        for gi, group_paths in enumerate(paths):
            for ui, d in enumerate(user_loads[gi]):
                cur = choices[gi][ui]
                if stayed.get((gi, d, cur)) == moves:
                    continue
                cur_arcs = arc_sets[gi][cur]
                best_pi, best_cost = cur, sum(map(costs.__getitem__, group_paths[cur]))
                for pi, path in enumerate(group_paths):
                    if pi != cur:
                        cost = arcs.deviation_cost(loads, costs, cur_arcs, path, d)
                        if cost < best_cost:
                            best_pi, best_cost = pi, cost
                if best_pi != cur:
                    new_arcs = arc_sets[gi][best_pi]
                    for moved, step in ((cur_arcs - new_arcs, -d), (new_arcs - cur_arcs, d)):
                        for a in moved:
                            loads[a] += step
                            costs[a] = arcs.tables[a][loads[a]]
                    choices[gi][ui] = best_pi
                    moves += 1
                    improved = True
                    if moves > config.max_iterations:
                        break
                else:
                    stayed[gi, d, cur] = moves
            if moves > config.max_iterations:
                break
        if not improved:
            converged = True
            break

    profile = AtomicProfile(tuple(tuple(row) for row in choices))
    cost = arcs.value(sum(map(mul, loads, costs)))
    return EquilibriumResult(flow=profile, kind="atomic-ne", residual=0.0 if converged else math.inf,
                             iterations=moves, exact=converged,
                             converged=converged, cost=cost,
                             note="" if converged else "budget exhausted without equilibrium",
                             wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Exact expectations for mixed profiles
# ---------------------------------------------------------------------------

def _convolve(dist: dict, outcomes, add: Callable = add, limit: Optional[int] = None) -> dict:
    """Distribution of add(v, x), v ~ ``dist`` and x ~ ``outcomes`` ((x, w) pairs)
    independent; each value sums its products p * w in the order they arrive.
    With a ``limit``, the fold stops at the first v that finds more than
    ``limit`` values, so the caller can refuse a result of that size."""
    new: dict = {}
    items = dist.items()
    if limit is not None:
        items = itertools.takewhile(lambda _: len(new) <= limit, items)
    for v, p in items:
        for x, w in outcomes:
            key = add(v, x)
            new[key] = new.get(key, 0) + p * w
    return new


def _bernoulli_convolution(pairs, dist: dict) -> dict:
    """Distribution of v plus the sum of independent d * Bernoulli(q) over
    (d, q) pairs, v ~ ``dist`` (left unmodified; a point mass at zero gives
    the sum alone).  Values and weights keep the number types of the inputs,
    so Fraction inputs give an exact result.
    """
    for d, q in pairs:
        if q == 1:
            dist = _convolve(dist, ((d, 1),))
        elif q != 0:
            dist = _convolve(dist, ((0, 1 - q), (d, q)))
    return dist


def arc_flow_distribution(game: Game, profile: MixedProfile, arc_id: str) -> dict:
    """Distribution of one arc's random flow under a mixed profile: its
    values are exact Fractions, and its weights are exact wherever the
    profile's probabilities are Fractions."""
    return _bernoulli_convolution(((d, q) for _, d, q in arc_users(game, profile, arc_id)),
                                  {Fraction(0): Fraction(1)})


def expected_arc_statistics(game: Game, profile: MixedProfile) -> dict:
    """Per-arc (E[cost], E[flow * cost]) from the exact flow distribution."""
    out = {}
    for aid, poly in game.arcs.items():
        terms = [(p, v, poly.value(v)) for v, p in arc_flow_distribution(game, profile, aid).items()]
        out[aid] = (sum(p * c for p, _, c in terms), sum(p * v * c for p, v, c in terms))
    return out


def expected_path_costs(game: Game, arc_stats: dict) -> dict:
    """Per path, the sum of its arcs' E[cost] in ``expected_arc_statistics``."""
    return {(gi, pi): sum(arc_stats[aid][0] for aid in game.groups[gi].paths[pi])
            for (gi, pi) in game.path_keys}


def expected_total_cost(arc_stats: dict) -> Number:
    """Expected total cost sum_a E[f_a tau_a(f_a)] from ``expected_arc_statistics``."""
    return sum(stats[1] for stats in arc_stats.values())


def _mixed_summary(game: Game, profile: MixedProfile) -> tuple:
    """(expected path costs, ``mixed_ne_residual``, expected total cost) of a
    profile, from one ``expected_arc_statistics`` pass."""
    profile.validate(game)
    stats = expected_arc_statistics(game, profile)
    path_costs = expected_path_costs(game, stats)
    residual = _worst_used_gap(game, profile.expected_flow(game), path_costs)
    return path_costs, residual, expected_total_cost(stats)


def mixed_ne_residual(game: Game, profile: MixedProfile) -> float:
    """Worst per-group gap between used-path and cheapest expected costs.

    Zero exactly when every path with positive expected flow has minimal
    expected cost within its group, which is the equilibrium predicate for
    mixed profiles (and, on degenerate profiles, the first principle).
    """
    return _mixed_summary(game, profile)[1]


# ---------------------------------------------------------------------------
# Mixed equilibrium on small two-path games
# ---------------------------------------------------------------------------

MIXED_MAX_USERS = 12


def _uniform_group_profile(game: Game, xs: Sequence[float]) -> MixedProfile:
    rows = []
    for gi, g in enumerate(game.groups):
        if g.n_paths == 1:
            rows.append(tuple((1.0,) for _ in range(g.n_users)))
        else:
            x = xs[gi]
            rows.append(tuple((x, 1.0 - x) for _ in range(g.n_users)))
    return MixedProfile(tuple(rows))


def solve_mixed_ne_small(game: Game, config: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Mixed equilibrium for games where every group has at most two paths.

    Searches profiles that give all users of a group the same probability x
    of taking the group's first path.  The gap between the two paths'
    expected costs is nondecreasing in x (arcs shared by both paths cancel),
    so each group is settled by bisection given the others, and groups are
    swept Gauss-Seidel style.  Expectations are exact convolutions, so the
    returned residual is limited only by the bisection width.

    A gap runs ``_horner`` over ``CostPolynomial.float_coefficients``,
    converted once per polynomial on first use, so only for the arcs a gap
    reads; Python does Fraction-float arithmetic on ``float(fraction)``, so
    at float loads that gives the bits of ``float(poly.value(v))``.  A group
    is settled again only once the x of a group sharing an arc with it has
    moved (the sweep still counts), and the bisection stops once its midpoint
    equals an end, after which no step would move one.
    """
    t0 = time.perf_counter()
    for g in game.groups:
        if g.n_paths > 2:
            raise ValueError(f"group {g.gid!r} has {g.n_paths} paths; solver handles <= 2")
    if game.n_users > MIXED_MAX_USERS:
        raise ValueError(f"{game.n_users} users exceed the exact-expectation cap {MIXED_MAX_USERS}")

    xs = [1.0 if g.n_paths == 1 else 0.5 for g in game.groups]
    arcs_of = [set().union(*g.paths) for g in game.groups]  # neighbours share an arc
    settled: dict = {}  # group index -> its neighbours' xs when it last settled

    def gap(terms: list, demands: list, x: float) -> float:
        """Expected cost of a group's first path minus its second, its users
        taking the first with probability x; ``terms`` are ``arc_terms``."""
        total = 0.0
        for sign, q_own, path_terms in ((1.0, x, terms[0]), (-1.0, 1.0 - x, terms[1])):
            for others, cs in path_terms:
                dist = _bernoulli_convolution(((d, q_own) for d in demands), others)
                total += sign * sum(p * _horner(cs, v) for v, p in dist.items())
        if not math.isfinite(total):
            raise OverflowError(f"expected path cost gap {total} is not a finite float")
        return total

    sweeps = 0
    max_sweeps = min(200, max(1, config.max_iterations))
    while sweeps < max_sweeps:
        sweeps += 1
        delta = 0.0
        for gi, g in enumerate(game.groups):
            if g.n_paths == 1:
                continue
            neighbour_xs = [x for gj, x in enumerate(xs) if gj != gi and arcs_of[gj] & arcs_of[gi]]
            if settled.get(gi) == neighbour_xs:
                continue  # its gap reads only its neighbours' xs: its x stands
            # Per path, its arcs not on the other path, in path order (shared
            # arcs cancel from the gap, and a fixed order fixes its float sum),
            # each with the flow distribution of the other groups' users,
            # which stay fixed while this group settles.
            profile = _uniform_group_profile(game, xs)
            arc_terms = [[(_bernoulli_convolution(
                ((float(d), q) for gj, d, q in arc_users(game, profile, aid) if gj != gi),
                {0.0: 1.0}), game.arcs[aid].float_coefficients)
                for aid in g.paths[k] if aid not in g.paths[1 - k]] for k in (0, 1)]
            demands = [float(d) for d in g.demands]
            g0, g1 = gap(arc_terms, demands, 0.0), gap(arc_terms, demands, 1.0)
            if g0 == 0.0 and g1 == 0.0:
                new_x = 0.5  # total indifference: report the uniform profile
            elif g0 >= 0.0:
                new_x = 0.0
            elif g1 <= 0.0:
                new_x = 1.0
            else:
                lo, hi = 0.0, 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if mid == lo or mid == hi:
                        break
                    if gap(arc_terms, demands, mid) <= 0.0:
                        lo = mid
                    else:
                        hi = mid
                new_x = 0.5 * (lo + hi)
            delta = max(delta, abs(new_x - xs[gi]))
            xs[gi] = new_x
            settled[gi] = neighbour_xs
        if delta <= 1e-15:
            break

    profile = _uniform_group_profile(game, xs)
    path_costs, residual, cost = _mixed_summary(game, profile)
    min_cost = min(float(c) for c in path_costs.values())
    converged = residual <= config.tolerance * (1.0 + abs(min_cost))
    return EquilibriumResult(flow=profile, kind="mixed-ne", residual=residual,
                             iterations=sweeps, exact=False, converged=converged,
                             cost=float(cost),
                             note="" if converged else "no equilibrium profile found within budget",
                             wall_time=time.perf_counter() - t0)
