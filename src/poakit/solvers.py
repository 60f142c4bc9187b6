"""Equilibrium and optimum computation.

Non-atomic problems are solved by conditional-gradient descent on the
Beckmann potential (equilibria) or on total cost via marginal costs
(optima): each step moves flow of one group from its costliest used path
toward its cheapest path, with the step length found by bisecting the
derivative of the 1-D convex restriction.  Atomic problems are solved
exactly: exhaustive enumeration over user-class assignments when the
state space fits the budget, best-response dynamics otherwise.  On a
rational game both run on exact integer cost tables (``_ArcCosts``): arc
loads are whole numbers of demand units, each arc's scaled cost is
tabulated once, and a cost becomes a Fraction only when it is recorded.
Other games evaluate the cost polynomials, with the same scan.  Mixed
equilibria on small two-path-per-group games are found by per-group
bisection of the expected-cost indifference condition, with expectations
computed by exact convolution over the users touching each arc.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import add, getitem, mul
from typing import Callable, Mapping, Optional, Sequence

from .game import (
    AtomicProfile,
    CostPolynomial,
    Game,
    MixedProfile,
    Number,
    PathFlow,
    arc_users,
)

USED_PATH_REL_TOL = Fraction(1, 10**12)  # f_p > 1e-12 * d_k counts as used


def check_seed(seed: int) -> None:
    """ValueError unless 0 <= seed < 2**64, so seed + restart is a Philox key (< 2**128)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in 0 .. 2**64 - 1, got {seed}")


class BudgetExceededError(RuntimeError):
    """The exact state space is larger than the configured enumeration budget."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-9
    max_iterations: int = 100_000
    rng_seed: int = 0
    enumeration_budget: int = 10_000_000

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.enumeration_budget < 1:
            raise ValueError("enumeration budget must be >= 1")
        check_seed(self.rng_seed)


@dataclass
class EquilibriumResult:
    flow: object  # PathFlow, AtomicProfile, or MixedProfile
    kind: str  # nonatomic-ne | nonatomic-so | atomic-ne | atomic-so | mixed-ne
    residual: float
    iterations: int
    exact: bool
    converged: bool = True
    cost: Optional[Number] = None
    multiplicity: int = 1
    note: str = ""
    wall_time: float = 0.0

    def __post_init__(self):
        if isinstance(self.cost, float) and not math.isfinite(self.cost):
            raise OverflowError(f"{self.kind} cost {self.cost} is not a finite float")

    def to_document(self, game: Game) -> dict:
        if isinstance(self.flow, PathFlow):
            flow_doc = {f"{game.groups[gi].gid}/{pi}": float(v) for (gi, pi), v in self.flow.items()}
        elif isinstance(self.flow, AtomicProfile):
            flow_doc = {game.groups[gi].gid: list(picks) for gi, picks in enumerate(self.flow.choices)}
        elif isinstance(self.flow, MixedProfile):
            flow_doc = {game.groups[gi].gid: [[float(p) for p in row] for row in rows]
                        for gi, rows in enumerate(self.flow.probabilities)}
        else:
            flow_doc = None
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

def _float_polys(game: Game, polys: Optional[Mapping[str, CostPolynomial]] = None) -> dict:
    src = polys if polys is not None else game.arcs
    return {aid: [float(c) for c in p.coefficients] for aid, p in src.items()}


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def beckmann_potential(game: Game, flow: PathFlow) -> Number:
    """Sum over arcs of the integral of the arc cost from 0 to the arc flow."""
    fa = game.arc_flow(flow)
    return sum(game.arcs[aid].integral_value(v) for aid, v in fa.items())


def verify_wardrop(game: Game, flow: PathFlow) -> float:
    """Worst per-group gap between the costliest used path and the cheapest path.

    A path counts as used when its flow exceeds 1e-12 times the group demand.
    The gap is 0 exactly when the flow satisfies the first principle: every
    used path is a cheapest path of its group.
    """
    arc_costs = game.arc_cost_map(flow)
    return _worst_used_gap(game, flow, {(gi, pi): game.path_cost(flow, gi, pi, arc_costs)
                                        for gi, pi in game.path_keys})


def _worst_used_gap(game: Game, flow: PathFlow, path_costs: Mapping) -> float:
    """Largest ``path_costs[gi, pi]`` of a used path above its group's cheapest."""
    worst = 0.0
    for gi, g in enumerate(game.groups):
        used_thresh = g.total_demand * USED_PATH_REL_TOL
        costs = [path_costs[gi, pi] for pi in range(g.n_paths)]
        cheapest = min(costs)
        for pi, c in enumerate(costs):
            if flow.value(gi, pi) > used_thresh:
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

def _equilibrate(game: Game, config: SolverConfig, direction_polys: dict,
                 start: Optional[PathFlow], kind: str) -> EquilibriumResult:
    """Drive every group's path costs (w.r.t. ``direction_polys``) to equality.

    Each move is a conditional-gradient step restricted to one group: shift
    mass from the group's costliest used path toward its cheapest path, the
    amount fixed by bisecting the monotone derivative of the underlying
    convex objective along that segment.
    """
    t0 = time.perf_counter()
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
    for i, key in enumerate(keys):
        for aid in gpaths[key]:
            arc_flow[aid] += flows[i]

    def group_move(slots: list, used_thresh: float) -> Optional[tuple]:
        """The group's (costliest used, cheapest) path slots, or None when
        their cost gap is within tolerance of the cheapest cost."""
        costs = [sum(_horner(direction_polys[aid], arc_flow[aid]) for aid in gpaths[keys[i]])
                 for i in slots]
        cheap_pos = min(range(len(slots)), key=lambda j: (costs[j], j))
        used = [j for j in range(len(slots)) if flows[slots[j]] > used_thresh]
        exp_pos = max(used, key=lambda j: (costs[j], -j))
        if costs[exp_pos] - costs[cheap_pos] <= config.tolerance * (1.0 + abs(costs[cheap_pos])):
            return None
        return slots[exp_pos], slots[cheap_pos]

    movable = [(slots, float(g.total_demand) * 1e-12)
               for g, slots in zip(game.groups, group_slots) if len(slots) > 1]
    moves = 0
    converged = False
    budget = config.max_iterations
    while moves < budget:
        for slots, used_thresh in movable:
            for _ in range(len(slots) * 8):
                move = moves < budget and group_move(slots, used_thresh)
                if not move:
                    break
                src, dst = move
                src_arcs, dst_arcs = gpaths[keys[src]], gpaths[keys[dst]]
                src_only = [aid for aid in src_arcs if aid not in dst_arcs]
                dst_only = [aid for aid in dst_arcs if aid not in src_arcs]
                amount = _segment_step(src_only, dst_only, arc_flow, direction_polys, flows[src])
                flows[src] -= amount
                flows[dst] += amount
                for aid in src_only:
                    arc_flow[aid] -= amount
                for aid in dst_only:
                    arc_flow[aid] += amount
                moves += 1
        if all(group_move(*group) is None for group in movable):
            converged = True
            break

    flow = PathFlow(game, [max(v, 0.0) for v in flows])
    fa = game.arc_flow(flow)
    dir_costs = {aid: _horner(direction_polys[aid], float(fa[aid])) for aid in game.arc_ids}
    path_costs = {key: sum(dir_costs[aid] for aid in gpaths[key]) for key in keys}
    residual = _worst_used_gap(game, flow, path_costs)
    cost = game.total_cost(flow.as_float())
    # The line search can strand costly flow on a steep arc below the used threshold.
    for slots, used_thresh in movable:
        cheapest = min(path_costs[keys[i]] for i in slots)
        converged = converged and all(
            flows[i] * (path_costs[keys[i]] - cheapest) <= config.tolerance * cost
            for i in slots if flows[i] <= used_thresh)
    return EquilibriumResult(flow=flow, kind=kind, residual=float(residual),
                             iterations=moves, exact=False, converged=converged,
                             cost=cost, wall_time=time.perf_counter() - t0)


def _segment_step(src_only, dst_only, arc_flow, polys, available: float) -> float:
    """Exact line search: bisect the derivative of the objective along the move."""

    def slope(m: float) -> float:
        return (sum(_horner(polys[a], arc_flow[a] + m) for a in dst_only)
                - sum(_horner(polys[a], arc_flow[a] - m) for a in src_only))

    hi = available
    top = slope(hi)
    if not math.isfinite(top):
        raise OverflowError(f"path cost gap {top} of a full move is not a finite float")
    if top <= 0.0:
        return hi
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, available):
            break
    return 0.5 * (lo + hi)


def solve_nonatomic_ne(game: Game, config: SolverConfig = SolverConfig(),
                       start: Optional[PathFlow] = None) -> EquilibriumResult:
    """Non-atomic equilibrium: minimize the Beckmann potential over feasible flows."""
    return _equilibrate(game, config, _float_polys(game), start, "nonatomic-ne")


def solve_nonatomic_so(game: Game, config: SolverConfig = SolverConfig(),
                       start: Optional[PathFlow] = None) -> EquilibriumResult:
    """Non-atomic optimum: minimize total cost, i.e. equilibrate marginal costs."""
    marginals = {aid: p.marginal() for aid, p in game.arcs.items()}
    return _equilibrate(game, config, _float_polys(game, marginals), start, "nonatomic-so")


def require_converged(result: EquilibriumResult) -> EquilibriumResult:
    """``result`` of a non-atomic solve; RuntimeError if it did not converge."""
    if not result.converged:
        raise RuntimeError("non-atomic solver did not converge within budget")
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


@dataclass(frozen=True)
class _UserClass:
    gi: int
    demand: Number
    user_slots: tuple  # indices of users in the group sharing this demand

    @property
    def size(self) -> int:
        return len(self.user_slots)


def _user_classes(game: Game, group_indices: Sequence[int]) -> list:
    classes = []
    for gi in group_indices:
        g = game.groups[gi]
        by_demand: dict = {}
        for ui, d in enumerate(g.demands):
            by_demand.setdefault(d, []).append(ui)
        for d, slots in by_demand.items():
            classes.append(_UserClass(gi, d, tuple(slots)))
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
    count = 1
    for cls in classes:
        p = game.groups[cls.gi].n_paths
        count *= comb(cls.size + p - 1, p - 1)
    return count


def _multiplicity(counts: Sequence[int]) -> int:
    total = sum(counts)
    m = 1
    for c in counts:
        m *= comb(total, c)
        total -= c
    return m


LATTICE_MAX_ROWS = 1 << 18  # cost-table rows one lattice may hold, summed over its arcs
LATTICE_ROWS_PER_READ = 16  # and rows per cost its solver is sure to read


class _Evaluated:
    """A cost polynomial read like a cost table: ``self[x]`` is its value at x."""

    def __init__(self, poly: CostPolynomial):
        self.value = poly.value

    def __getitem__(self, x: Number) -> Number:
        return self.value(x)


@dataclass(frozen=True)
class _ArcCosts:
    """Arc loads and arc costs as the atomic solvers add and compare them.

    Arcs are numbered; ``tables[a][K]`` is the cost of arc a at load K.  On
    the integer lattice of a rational game, a load is a whole number K of
    units 1/L, where L is the LCM of the users' demand denominators, and the
    table holds the integers ``tau_a(K / L) * M``, with M = D * L**maxdeg
    and D the LCM of the coefficient denominators.  Costs are then integers
    scaled by the common factor M, so sums and ``<`` decide exactly as in
    Fraction arithmetic, and ``value`` turns a sum of load times cost back
    into ``Fraction(total, L * M)``.  Otherwise loads are the demands
    themselves, each table evaluates its polynomial, exactly (Fraction) or
    in floating point, and ``value`` is the identity.
    """

    zero: Number  # load of an empty arc
    load: Callable  # user demand -> load that user puts on an arc
    tables: list  # per arc: load -> cost, by indexing
    value: Callable  # sum of load * cost -> total cost in the game's units

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


def _arc_costs(game: Game, classes: Sequence[_UserClass], arc_ids: Sequence[str],
               reads: int) -> _ArcCosts:
    """Integer cost tables for ``arc_ids`` over the users of ``classes``.

    An arc's table covers every load the users can put on it: K = 0 .. the
    units of the users whose group has a path through the arc.  That covers
    deviations too, since a user moving onto an arc was not on it.  Falls
    back to evaluating the polynomials when the game is not rational, or
    when the tables would hold more than LATTICE_MAX_ROWS rows, or more than
    LATTICE_ROWS_PER_READ rows per arc cost the caller is sure to read
    (``reads``): a row costs a small fraction of one polynomial evaluation,
    so tables never cost much more than the evaluations they replace.  The
    row count is computed before any table is built.
    """
    polys = [game.arcs[aid] for aid in arc_ids]
    evaluated = _ArcCosts(Fraction(0), lambda d: d, [_Evaluated(p) for p in polys],
                          lambda total: total)
    if not game.is_rational:
        return evaluated
    scale = math.lcm(*(Fraction(cls.demand).denominator for cls in classes))
    units = {cls.demand: int(cls.demand * scale) for cls in classes}
    reach = dict.fromkeys(arc_ids, 0)
    for cls in classes:
        for aid in {aid for path in game.groups[cls.gi].paths for aid in path}:
            reach[aid] += units[cls.demand] * cls.size
    rows = sum(reach.values()) + len(arc_ids)
    if rows > min(LATTICE_MAX_ROWS, LATTICE_ROWS_PER_READ * reads):
        return evaluated

    degree = max(p.degree for p in polys)
    common = math.lcm(*(c.denominator for p in polys for c in p.coefficients))
    tables = []
    for aid, poly in zip(arc_ids, polys):
        coeffs = poly.coefficients
        # The coefficient of K**e, scaled by common * scale**(degree - e).
        scaled = [int(c * common) * scale ** (degree - len(coeffs) + 1 + i)
                  for i, c in enumerate(coeffs)]
        table = [0] * (reach[aid] + 1)
        for s in scaled:  # Horner's rule, one coefficient at a time over all rows
            table = [acc * k + s for k, acc in enumerate(table)]
        tables.append(table)
    denominator = scale * common * scale ** degree
    return _ArcCosts(0, units.__getitem__, tables, lambda total: Fraction(total, denominator))


def _numbered_paths(paths: Sequence[tuple], arc_ids: Sequence[str]) -> tuple:
    """``paths`` with each arc id replaced by its position in ``arc_ids``."""
    position = {aid: a for a, aid in enumerate(arc_ids)}
    return tuple(tuple(position[aid] for aid in path) for path in paths)


class _ComponentScan:
    """Exhaustive scan over count-based atomic states of one component."""

    def __init__(self, game: Game, group_indices: Sequence[int]):
        self.game = game
        self.groups = list(group_indices)
        self.classes = _user_classes(game, group_indices)
        self.arc_ids = sorted({aid for gi in group_indices
                               for path in game.groups[gi].paths for aid in path})

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
                          self.arcs.load(cls.demand)))
        return moves

    def state_count(self) -> int:
        return _class_state_count(self.game, self.classes)

    def scan(self, visit: Callable):
        """Call ``visit(assignment, loads)`` for every count state.

        ``assignment`` maps class position to its per-path count tuple, and
        ``loads`` lists the arcs' loads in ``arc_ids`` order (see ``_ArcCosts``).
        """
        loads = [self.arcs.zero] * len(self.arc_ids)
        assignment: list = [None] * len(self.classes)
        moves = self.moves

        def rec(ci: int):
            paths, _, _, load = moves[ci]
            last = ci == len(moves) - 1
            for counts in _compositions(self.classes[ci].size, len(paths)):
                for path, c in zip(paths, counts):
                    if c:
                        add = load * c
                        for a in path:
                            loads[a] += add
                assignment[ci] = counts
                if last:
                    visit(assignment, loads)
                else:
                    rec(ci + 1)
                for path, c in zip(paths, counts):
                    if c:
                        add = load * c
                        for a in path:
                            loads[a] -= add
            assignment[ci] = None

        rec(0)

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
        """Per-group user choices realizing the counts (users filled in slot order)."""
        picks: dict[int, list] = {gi: [None] * self.game.groups[gi].n_users for gi in self.groups}
        for ci, cls in enumerate(self.classes):
            counts = assignment[ci]
            it = iter(cls.user_slots)
            for pi, c in enumerate(counts):
                for _ in range(c):
                    picks[cls.gi][next(it)] = pi
        return picks

    def assignment_multiplicity(self, assignment) -> int:
        m = 1
        for ci, cls in enumerate(self.classes):
            m *= _multiplicity(assignment[ci])
        return m


@dataclass
class AtomicEquilibria:
    """All pure equilibria of a game and its atomic optimum, from one exact scan.

    ``equilibria`` lists one representative per user-symmetry class with its
    multiplicity; ``worst`` and ``best`` are by total cost.  Empty when the
    game (necessarily weighted) has no pure equilibrium.  ``optimum`` is the
    cheapest state (kind ``atomic-so``), set whether or not equilibria exist.
    """

    equilibria: list
    worst: Optional[EquilibriumResult]
    best: Optional[EquilibriumResult]
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
    so_picks: dict[int, list] = {}
    so_cost = 0
    scanned = 0
    for comp in comps:
        found: list = []
        cheapest = None

        def visit(assignment, loads, comp=comp, found=found):
            nonlocal cheapest
            costs = list(map(getitem, comp.arcs.tables, loads))
            cost = sum(map(mul, loads, costs))
            if cheapest is None or cost < cheapest[1]:
                cheapest = (list(assignment), cost)
            if comp.is_equilibrium(assignment, loads, costs):
                found.append((comp.representative(assignment), comp.arcs.value(cost),
                              comp.assignment_multiplicity(assignment)))

        comp.scan(visit)
        scanned += comp.state_count()
        per_comp.append(found)
        so_picks.update(comp.representative(cheapest[0]))
        so_cost += comp.arcs.value(cheapest[1])

    def profile_of(picks) -> AtomicProfile:
        return AtomicProfile(tuple(tuple(picks[gi]) for gi in range(len(game.groups))))

    exact = game.is_rational
    optimum = EquilibriumResult(flow=profile_of(so_picks), kind="atomic-so", residual=0.0,
                                iterations=scanned, exact=exact, cost=so_cost,
                                wall_time=time.perf_counter() - t0)
    if any(not found for found in per_comp):
        return AtomicEquilibria([], None, None, scanned, optimum)

    def combine(combo, note=""):
        # Component costs add and multiplicities multiply (disjoint arc sets).
        cost = sum(c for _, c, _ in combo)
        mult = 1
        picks = {}
        for rep, _, m in combo:
            mult *= m
            picks.update(rep)
        return EquilibriumResult(flow=profile_of(picks), kind="atomic-ne", residual=0.0,
                                 iterations=scanned, exact=exact, cost=cost,
                                 multiplicity=mult, note=note,
                                 wall_time=time.perf_counter() - t0)

    worst = combine([max(found, key=lambda e: e[1]) for found in per_comp], "worst")
    best = combine([min(found, key=lambda e: e[1]) for found in per_comp], "best")

    combo_count = 1
    for found in per_comp:
        combo_count *= len(found)
    results = []
    if combo_count <= 100_000:
        results = [combine(combo) for combo in itertools.product(*per_comp)]
    return AtomicEquilibria(results, worst, best, scanned, optimum)


def solve_atomic_so(game: Game, config: SolverConfig = SolverConfig()) -> EquilibriumResult:
    """Exact minimizer of total cost over all atomic states.

    The optimum found by ``enumerate_atomic_equilibria``'s scan; callers that
    also need the equilibria should take ``.optimum`` from that one call.
    """
    return enumerate_atomic_equilibria(game, config).optimum


# ---------------------------------------------------------------------------
# Best-response dynamics
# ---------------------------------------------------------------------------

def best_response_atomic(game: Game, config: SolverConfig = SolverConfig(),
                         initial: Optional[AtomicProfile] = None) -> EquilibriumResult:
    """Iterate single-user best responses until no user can strictly improve.

    Ties break toward the currently used path, then the lowest path index,
    so runs are deterministic.  Guaranteed to terminate on unweighted games
    (potential descent); weighted games may cycle, in which case the budget
    expires and the best iterate is returned flagged as non-converged.
    """
    t0 = time.perf_counter()
    if initial is None:
        initial = AtomicProfile(tuple(tuple(0 for _ in g.demands) for g in game.groups))
    initial.validate(game)

    classes = _user_classes(game, range(len(game.groups)))
    # A first round reads every arc's cost, then one deviation per user and other path.
    arcs = _arc_costs(game, classes, game.arc_ids,
                      game.n_arcs + sum(g.n_users * (g.n_paths - 1) for g in game.groups))
    user_loads = [[None] * g.n_users for g in game.groups]
    for cls in classes:
        for ui in cls.user_slots:
            user_loads[cls.gi][ui] = arcs.load(cls.demand)
    paths = [_numbered_paths(g.paths, game.arc_ids) for g in game.groups]
    arc_sets = [[set(path) for path in group_paths] for group_paths in paths]
    choices = [list(picks) for picks in initial.choices]
    loads = [arcs.zero] * game.n_arcs
    for gi, group_paths in enumerate(paths):
        for ui, d in enumerate(user_loads[gi]):
            for a in group_paths[choices[gi][ui]]:
                loads[a] += d
    costs = list(map(getitem, arcs.tables, loads))

    moves = 0
    converged = False
    while moves <= config.max_iterations:
        improved = False
        for gi, group_paths in enumerate(paths):
            for ui, d in enumerate(user_loads[gi]):
                cur = choices[gi][ui]
                cur_arcs = arc_sets[gi][cur]
                best_pi, best_cost = cur, sum(map(costs.__getitem__, group_paths[cur]))
                for pi, path in enumerate(group_paths):
                    if pi != cur:
                        cost = arcs.deviation_cost(loads, costs, cur_arcs, path, d)
                        if cost < best_cost:
                            best_pi, best_cost = pi, cost
                if best_pi != cur:
                    new_arcs = arc_sets[gi][best_pi]
                    for a in cur_arcs - new_arcs:
                        loads[a] -= d
                        costs[a] = arcs.tables[a][loads[a]]
                    for a in new_arcs - cur_arcs:
                        loads[a] += d
                        costs[a] = arcs.tables[a][loads[a]]
                    choices[gi][ui] = best_pi
                    moves += 1
                    improved = True
                    if moves > config.max_iterations:
                        break
            if moves > config.max_iterations:
                break
        if not improved:
            converged = True
            break

    profile = AtomicProfile(tuple(tuple(row) for row in choices))
    cost = arcs.value(sum(map(mul, loads, costs)))
    return EquilibriumResult(flow=profile, kind="atomic-ne", residual=0.0 if converged else math.inf,
                             iterations=moves, exact=game.is_rational and converged,
                             converged=converged, cost=cost,
                             note="" if converged else "budget exhausted without equilibrium",
                             wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Exact expectations for mixed profiles
# ---------------------------------------------------------------------------

def _convolve(dist: dict, outcomes, add: Callable = add) -> dict:
    """Distribution of add(v, x), v ~ ``dist`` and x ~ ``outcomes`` ((x, w) pairs)
    independent; each value sums its products p * w in the order they arrive."""
    new: dict = {}
    for v, p in dist.items():
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
    """Exact distribution of one arc's random flow under a mixed profile."""
    pairs = ((d, q) for _, d, q in arc_users(game, profile, arc_id))
    if game.is_rational:
        return _bernoulli_convolution(pairs, {Fraction(0): Fraction(1)})
    return _bernoulli_convolution(pairs, {0: 1.0})


def expected_arc_statistics(game: Game, profile: MixedProfile) -> dict:
    """Per-arc (E[cost], E[flow * cost]) from the exact flow distribution."""
    out = {}
    for aid, poly in game.arcs.items():
        terms = [(p, v, poly.value(v)) for v, p in arc_flow_distribution(game, profile, aid).items()]
        out[aid] = (sum(p * c for p, _, c in terms), sum(p * v * c for p, v, c in terms))
    return out


def expected_path_costs(game: Game, profile: MixedProfile,
                        arc_stats: Optional[dict] = None) -> dict:
    if arc_stats is None:
        arc_stats = expected_arc_statistics(game, profile)
    return {(gi, pi): sum(arc_stats[aid][0] for aid in game.groups[gi].paths[pi])
            for (gi, pi) in game.path_keys}


def expected_total_cost(game: Game, profile: MixedProfile,
                        arc_stats: Optional[dict] = None) -> Number:
    """Exact expected total cost sum_a E[f_a tau_a(f_a)] of the random flow."""
    if arc_stats is None:
        arc_stats = expected_arc_statistics(game, profile)
    return sum(stats[1] for stats in arc_stats.values())


def _mixed_summary(game: Game, profile: MixedProfile) -> tuple:
    """(expected path costs, ``mixed_ne_residual``, expected total cost) of a
    profile, from one ``expected_arc_statistics`` pass."""
    profile.validate(game)
    stats = expected_arc_statistics(game, profile)
    path_costs = expected_path_costs(game, profile, stats)
    residual = _worst_used_gap(game, profile.expected_flow(game), path_costs)
    return path_costs, residual, expected_total_cost(game, profile, stats)


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
    """
    t0 = time.perf_counter()
    for g in game.groups:
        if g.n_paths > 2:
            raise ValueError(f"group {g.gid!r} has {g.n_paths} paths; solver handles <= 2")
    if game.n_users > MIXED_MAX_USERS:
        raise ValueError(f"{game.n_users} users exceed the exact-expectation cap {MIXED_MAX_USERS}")

    xs = [1.0 if g.n_paths == 1 else 0.5 for g in game.groups]

    def gap(terms: list, demands: list, x: float) -> float:
        """Expected cost of a group's first path minus its second, its users
        taking the first with probability x; ``terms`` are ``arc_terms``."""
        total = 0.0
        for sign, q_own, path_terms in ((1.0, x, terms[0]), (-1.0, 1.0 - x, terms[1])):
            for others, poly in path_terms:
                dist = _bernoulli_convolution(((d, q_own) for d in demands), others)
                total += sign * sum(p * float(poly.value(v)) for v, p in dist.items())
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
            # Per path, its arcs not on the other path, in path order (shared
            # arcs cancel from the gap, and a fixed order fixes its float sum),
            # each with the flow distribution of the other groups' users,
            # which stay fixed while this group settles.
            profile = _uniform_group_profile(game, xs)
            arc_terms = [[(_bernoulli_convolution(
                ((float(d), q) for gj, d, q in arc_users(game, profile, aid) if gj != gi),
                {0.0: 1.0}), game.arcs[aid])
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
                    if gap(arc_terms, demands, mid) <= 0.0:
                        lo = mid
                    else:
                        hi = mid
                new_x = 0.5 * (lo + hi)
            delta = max(delta, abs(new_x - xs[gi]))
            xs[gi] = new_x
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
