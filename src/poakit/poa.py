"""The four inefficiency ratios and random-cost sampling.

Atomic, non-atomic, and mixed ratios divide worst-case equilibrium cost by
the matching optimum cost.  The random ratio is the distribution of the
realized total cost of a mixed profile over the atomic optimum cost; it is
sampled with a counter-based generator (sample i is a pure function of the
seed and i, so any split of the sample range reproduces exactly) and, on
small games, also computed exactly by state enumeration.
"""

from __future__ import annotations

import math
import threading
from operator import add, getitem, mul
from typing import TYPE_CHECKING, NamedTuple, Optional

from .game import SAMPLE_CHUNK, AtomicProfile, Game, MixedProfile, Number, _horner, _word_cuts
from .solvers import (
    AtomicEquilibria,
    BudgetExceededError,
    EquilibriumResult,
    SolverConfig,
    _numbered_paths,
    best_response_atomic,
    enumerate_atomic_equilibria,
    require_converged,
    solve_mixed_ne_small,
    solve_nonatomic_ne,
    solve_nonatomic_so,
    verify_wardrop,
)

if TYPE_CHECKING:  # numpy is imported where samples are drawn, not on every start
    import numpy as np

POA_FLOOR_TOL = 1e-9
POA_SLACK_CAP = 0.1  # however loose the solve, a 10 % shortfall is not rounding


class PoaReport(NamedTuple):
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
    equilibria: Optional[AtomicEquilibria] = None  # the scan behind atomic_poa, if in budget

    def validate(self, tolerance: float = POA_FLOOR_TOL) -> None:
        """ValueError if a ratio falls below ``1 - slack``, or the atomic optimum
        below ``(1 - slack)`` times the non-atomic one less POA_FLOOR_TOL: the
        float solves stop within ``tolerance``, taken as slack up to the cap."""
        slack = min(max(POA_FLOOR_TOL, tolerance), POA_SLACK_CAP)
        for name, value in (("atomic", self.atomic_poa), ("nonatomic", self.nonatomic_poa),
                            ("mixed", self.mixed_poa)):
            if value is not None and float(value) < 1 - slack:
                raise ValueError(f"{name} ratio {float(value)} below 1")
        if self.atomic_so_cost is not None and self.nonatomic_so_cost is not None:
            floor = float(self.nonatomic_so_cost) * (1 - slack) - POA_FLOOR_TOL
            if float(self.atomic_so_cost) < floor:
                raise ValueError("atomic optimum cheaper than non-atomic optimum")


def atomic_poa(game: Game, config: SolverConfig = SolverConfig(),
               equilibria: Optional[AtomicEquilibria] = None):
    """Worst pure-equilibrium cost over the atomic optimum cost.

    An exact Fraction, as every game's data is; ``equilibria`` reuses
    the caller's ``enumerate_atomic_equilibria`` result.  Returns
    ``(value, status)`` with value None when no pure equilibrium exists.
    """
    if equilibria is None:
        equilibria = enumerate_atomic_equilibria(game, config)
    if equilibria.worst is None:
        return None, "unavailable: no atomic equilibrium (weighted game)"
    return equilibria.worst.cost / equilibria.optimum.cost, "ok"


def nonatomic_poa(game: Game, config: SolverConfig = SolverConfig()):
    """Equilibrium cost over optimum cost for arbitrarily splittable demand.

    Returns ``(ratio, ne, so)``; RuntimeError if either solve did not converge.
    """
    so = require_converged(solve_nonatomic_so(game, config))
    ne = require_converged(solve_nonatomic_ne(game, config))
    return float(ne.cost) / float(so.cost), ne, so


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
    the expected total cost are both bilinear in (x, y).  Their values at the
    four pure corners, where an expected cost is the pure profile's exact
    cost, fix both, and ``_worst_on_equilibrium_set``
    maximizes the cost over the equilibrium set in closed form.  Returns
    None outside that scope.
    """
    if len(game.groups) != 1:
        return None
    g = game.groups[0]
    if g.n_users != 2 or g.n_paths != 2:
        return None

    gaps, totals = {}, {}
    for x in (0, 1):
        for y in (0, 1):
            flow = AtomicProfile(((1 - x, 1 - y),)).induced_flow(game)  # x = 1: path 0
            costs = game.arc_cost_map(flow)
            gaps[x, y] = game.path_cost(flow, 0, 0, costs) - game.path_cost(flow, 0, 1, costs)
            totals[x, y] = game.total_cost(flow)
    return _worst_on_equilibrium_set(gaps, totals)


def mixed_poa_small(game: Game, config: SolverConfig = SolverConfig(),
                    equilibria: Optional[AtomicEquilibria] = None,
                    mixed_ne: Optional[EquilibriumResult] = None):
    """Worst mixed-equilibrium expected cost over the atomic optimum.

    Certified when the game has one group of two users on two paths: the
    worst cost over the whole equilibrium set is then computed in closed form
    from four corner evaluations (see ``_two_user_two_path_worst``).
    Otherwise a lower bound from the profiles the solver finds, including
    pure equilibria that satisfy the mixed predicate: on a pure profile that
    is the first principle (``verify_wardrop``), and its expected cost is
    its cost from the scan.  ``equilibria`` reuses the caller's
    ``enumerate_atomic_equilibria`` result (its pure equilibria and
    ``optimum``), and ``mixed_ne`` its ``solve_mixed_ne_small`` result; each
    is computed here when not given.  Returns ``(value, certified, status)``.
    """
    if equilibria is None:
        equilibria = enumerate_atomic_equilibria(game, config)
    swept = _two_user_two_path_worst(game)
    certified = swept is not None
    if certified:
        candidates = [swept]
    else:
        result = solve_mixed_ne_small(game, config) if mixed_ne is None else mixed_ne
        candidates = [float(result.cost)] if result.converged else []
        candidates += [float(e.cost) for e in equilibria.equilibria
                       if verify_wardrop(game, e.flow.induced_flow(game)) <= config.tolerance]
    if not candidates:
        return None, False, "no mixed equilibrium found (solver failure)"
    return float(max(candidates) / equilibria.optimum.cost), certified, "ok"


# ---------------------------------------------------------------------------
# Random ratio sampling
# ---------------------------------------------------------------------------

MAX_SAMPLES = 2**63 - 1  # the most samples an int64 count holds


class RandomPoaDistribution(NamedTuple):
    """Empirical and, when available, exact distribution of the random ratio.

    The empirical side is a table, not the samples: ``values`` holds each
    distinct sampled ratio in increasing order and ``counts`` (int64) how
    many samples took it, so its size follows the number of distinct values,
    whatever the number of samples.  The mean is computed exactly from the
    table and rounded once.
    """

    values: np.ndarray  # distinct sampled ratios, increasing
    counts: np.ndarray  # int64: samples per value
    exact: list  # (ratio, probability) pairs; empty when not enumerated
    exact_status: str  # "ok", or why ``exact`` was not enumerated

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())

    @property
    def samples(self) -> np.ndarray:
        """Every sample, in increasing order.  Builds an array of n_samples
        floats, which nothing in poakit does; the table is what a run holds."""
        import numpy as np

        return np.repeat(self.values, self.counts)

    @property
    def empirical_mean(self) -> float:
        # sum of v * c is an integer over q, the largest denominator of the
        # values (every one is a power of 2), so the sum is exact.
        ratios = [v.as_integer_ratio() for v in self.values.tolist()]
        q = max(den for _, den in ratios)
        total = sum(num * (q // den) * c for (num, den), c in zip(ratios, self.counts.tolist()))
        return total / (q * self.n_samples)  # int / int rounds once

    @property
    def exact_mean(self) -> Optional[float]:
        if not self.exact:
            return None
        return float(sum(v * p for v, p in self.exact))

    def table(self) -> list:
        """Rows (value, probability-or-frequency, source) for CSV export."""
        rows = [(float(v), float(p), "exact") for v, p in self.exact]
        rows.extend((v, c, "monte-carlo")
                    for v, c in zip(self.values.tolist(), self.counts.tolist()))
        return rows


SAMPLE_BLOCK = SAMPLE_CHUNK // 4  # samples per block; a block never crosses a stream


def _block_costs(game: Game, profile: MixedProfile):
    """A function ``block(seed, start, count)``: the realized total costs of
    samples start .. start + count - 1, which must lie in one generator stream.

    Sample i depends only on (seed, i).  A user takes the first path whose
    cumulative probability exceeds its uniform, else the last, as
    ``draw_atomic_profile`` does; the cut points never fall, so that is the
    count of cut points at or below the uniform, compared as word thresholds
    (``_word_cuts``) with the draws' words; a cut no uniform reaches, only
    ever a user's last ones, is dropped.  A sample's cost is the sum, in arc
    order, of each arc's term ``f * _horner(float_coefficients, f)``, where the
    load f adds, in user order, each user's demand where the user's path
    holds the arc, else 0.0.  An arc on no path, whose term is +0.0 in every
    sample, is left out: the sum starts at +0.0 and no term is negative, so
    adding +0.0 changes no bit.

    Users are split into components by shared arcs (``_group_components``);
    an arc's load, and so its term, depends only on its own component's
    picks.  A component of at most ``SAMPLE_BLOCK`` pure states (the product
    of its users' path counts) is costed here, once: its states are numbered
    in mixed radix, first user most significant, and each of its arcs gets a
    table of the term in every state.  A block then compares its draws with
    the thresholds, at once for all users, reads each component's state
    number from the path indices and gathers its arcs' terms from the
    tables.  A larger component is costed sample by sample, from the block's
    own path indices.  Either way each term comes from the same loads by the
    same float operations, so the costs are the same bit for bit.  The
    tables hold at most ``n_arcs * SAMPLE_BLOCK`` floats, the size of one
    block's load rows, and are only read, so threads may share them.
    """
    import numpy as np

    from .game import sample_uniforms
    from .solvers import _group_components

    users = []  # (demand, cut points as word thresholds, arc rows per path)
    group_users = []  # the user numbers of each group
    for gi, g in enumerate(game.groups):
        rows = _numbered_paths(g.paths, game.arc_ids)
        group_users.append(range(len(users), len(users) + g.n_users))
        for ui, d in enumerate(g.demands):
            users.append((float(d), _word_cuts(profile.probabilities[gi][ui]), rows))
    coeff_rows = [game.arcs[aid].float_coefficients for aid in game.arc_ids]

    def terms(picks, count, members, arcs):
        """Each arc's term, in the order of ``arcs``, in ``count`` states or
        samples, with user j of ``members`` on path picks[j] (an array of
        ``count`` path indices, or one index for all)."""
        row = {a: r for r, a in enumerate(arcs)}
        flows = np.zeros((len(arcs), count))
        for (d, _, paths), choice in zip(members, picks):
            for pi, path in enumerate(paths):
                load = (choice == pi) * d
                for a in path:
                    flows[row[a]] += load
        return [fa * _horner(coeff_rows[a], fa) for a, fa in zip(arcs, flows)]

    # Path indices: users by falling cut count, so that cut k is compared
    # for the first users only; the narrowest unsigned type that holds them.
    order = sorted(range(len(users)), key=lambda u: -len(users[u][1]))
    column = {u: c for c, u in enumerate(order)}
    passes = []  # (users with a k-th threshold, those thresholds)
    for k in range(len(users[order[0]][1])):
        live = [u for u in order if len(users[u][1]) > k]
        passes.append((len(live), np.array([users[u][1][k] for u in live], np.uint64)))
    index_type = np.min_scalar_type(max(len(rows) for _, _, rows in users) - 1)
    if order == sorted(order):
        order = None

    # (members, the columns of their path indices, their arcs, table rows or
    # None); a table's state number skips the users of one path.
    components = []
    owner = [None] * game.n_arcs  # (component, row) of each arc on a path
    for groups in _group_components(game):
        members = [u for gi in groups for u in group_users[gi]]
        arcs = sorted({a for u in members for path in users[u][2] for a in path})
        radix = [len(users[u][2]) for u in members]
        n_states = math.prod(radix)
        table = None
        if n_states <= SAMPLE_BLOCK:
            # state s puts each user on its digit of s; a user of one path
            # is on path 0 in every state
            state, place, digits = np.arange(n_states), n_states, []
            for r in radix:
                place //= r
                digits.append(state // place % r if r > 1 else 0)
            table = terms(digits, n_states, [users[u] for u in members], arcs)
        columns = [(column[u], r) for u, r in zip(members, radix) if r > 1 or table is None]
        for r, a in enumerate(arcs):
            owner[a] = (len(components), r)
        components.append(([users[u] for u in members], columns, arcs, table))
    owner = [o for o in owner if o is not None]

    def block(seed: int, start: int, count: int):
        draws = sample_uniforms(seed, start, count, len(users))
        if order is not None:
            draws = draws[:, order]
        choice = np.zeros((count, len(users)), index_type)
        for live, cuts in passes:
            choice[:, :live] += draws[:, :live] >= cuts
        del draws
        picked = []  # per component: its state numbers, or its arcs' terms
        for members, columns, arcs, table in components:
            if table is None:
                picked.append(terms([choice[:, c] for c, _ in columns], count, members, arcs))
            elif columns:
                code = choice[:, columns[0][0]].astype(np.intp)
                for c, r in columns[1:]:
                    code *= r
                    code += choice[:, c]
                picked.append(code)
            else:
                picked.append(0)  # one state
        total = np.zeros(count)
        for ci, r in owner:
            table = components[ci][3]
            total += picked[ci][r] if table is None else table[r][picked[ci]]
        return total

    return block


def _add_counts(values, counts, new_values, new_counts):
    """The table (values, counts) with (new_values, new_counts) added in.

    Both value arrays are increasing and without repeats, and so is the
    result's; a value in both gets the sum of its counts, added into
    ``counts`` in place.
    """
    import numpy as np

    at = np.searchsorted(values, new_values)
    seen = at < len(values)
    seen[seen] = values[at[seen]] == new_values[seen]
    counts[at[seen]] += new_counts[seen]
    fresh = ~seen
    return (np.insert(values, at[fresh], new_values[fresh]),
            np.insert(counts, at[fresh], new_counts[fresh]))


EXACT_DISTRIBUTION_MAX_STATES = 2_000_000


def exact_random_cost_distribution(game: Game, profile: MixedProfile) -> list:
    """Exact distribution of the realized total cost, by state enumeration.

    Groups that share no arcs have independent realized costs, so their cost
    distributions are enumerated separately and convolved.  A state is the
    tuple of its arc loads, and its cost is read from the component's
    ``_ArcCosts``, as the atomic scan reads it, on the integer lattice, and
    rounded to a float once per state.
    """
    from .solvers import _ComponentScan, _convolve, _group_components

    comp_dists = []
    for indices in _group_components(game):
        comp = _ComponentScan(game, indices)
        arcs = comp.arcs
        states = {(0,) * len(comp.arc_ids): 1.0}  # arc loads -> probability
        for gi in indices:
            g = game.groups[gi]
            for d, rows in zip(g.demands, profile.probabilities[gi]):
                load = arcs.units[d]
                steps = [(tuple(load if aid in path else 0 for aid in comp.arc_ids), q)
                         for path, q in zip(g.paths, map(float, rows)) if q != 0.0]
                states = _convolve(states, steps, lambda state, step: tuple(map(add, state, step)),
                                   limit=EXACT_DISTRIBUTION_MAX_STATES)
                if len(states) > EXACT_DISTRIBUTION_MAX_STATES:
                    raise BudgetExceededError("state space too large for exact enumeration")
        dist: dict = {}
        for state, p in states.items():
            cost = float(arcs.value(sum(map(mul, state, map(getitem, arcs.tables, state)))))
            dist[cost] = dist.get(cost, 0.0) + p
        comp_dists.append(dist)

    total = {0.0: 1.0}
    for dist in comp_dists:
        total = _convolve(total, dist.items(), limit=EXACT_DISTRIBUTION_MAX_STATES)
        if len(total) > EXACT_DISTRIBUTION_MAX_STATES:
            raise BudgetExceededError("cost support too large for exact convolution")
    return sorted(total.items())


EXACT_DISTRIBUTION_MAX_USERS = 20


def _sample_workers() -> int:
    """The CPUs this process may use: the most threads ``sample_random_poa`` runs."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_random_poa(game: Game, profile: MixedProfile, n_samples: int,
                      config: SolverConfig = SolverConfig()) -> RandomPoaDistribution:
    """Distribution of realized total cost over the atomic optimum cost.

    ``n_samples`` draws (ValueError below 1), keyed by ``config.rng_seed``:
    draw i is a pure function of the seed and i.  The ``SAMPLE_BLOCK`` blocks
    of draws are dealt round-robin to pool threads, one per usable CPU and no
    more than there are blocks; the calling thread only merges.  Each worker
    reduces its blocks to their distinct ratios and counts as it draws them,
    into its own running table of int64 counts; a table holds up to
    ``MAX_SAMPLES`` samples.  Values come out sorted and counts summed,
    so the result does not depend on the number of workers.  Once the merge
    fails or is interrupted, every worker stops before its next block.  The
    exact distribution only cross-checks the sampled one, so a game past
    ``EXACT_DISTRIBUTION_MAX_USERS`` or the state budget gets no exact rows,
    and ``exact_status`` says why.
    """
    from concurrent.futures import ThreadPoolExecutor, as_completed

    import numpy as np

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    profile.validate(game)
    so_cost = float(enumerate_atomic_equilibria(game, config).optimum.cost)
    if not so_cost > 0.0:
        raise ZeroDivisionError(f"atomic optimum cost {so_cost} is not above 0 as a float")
    workers = min(_sample_workers(), -(-n_samples // SAMPLE_BLOCK))
    stop = threading.Event()  # set once the merge fails or is interrupted
    empty = np.empty(0), np.empty(0, dtype=np.int64)
    block = _block_costs(game, profile)

    def reduce(w: int):
        # Blocks w, w + workers, ...: one block's draws at a time, so the
        # memory used does not grow with n_samples.
        table = empty
        for start in range(w * SAMPLE_BLOCK, n_samples, workers * SAMPLE_BLOCK):
            costs = block(config.rng_seed, start, min(SAMPLE_BLOCK, n_samples - start))
            table = _add_counts(*table, *np.unique(costs / so_cost, return_counts=True))
            if stop.is_set():
                break
        return table

    values, counts = empty
    with ThreadPoolExecutor(workers) as pool:
        try:
            for done in as_completed([pool.submit(reduce, w) for w in range(workers)]):
                values, counts = _add_counts(values, counts, *done.result())
        finally:
            stop.set()
    exact, exact_status = [], f"skipped: more than {EXACT_DISTRIBUTION_MAX_USERS} users"
    if game.n_users <= EXACT_DISTRIBUTION_MAX_USERS:
        try:
            exact, exact_status = exact_random_cost_distribution(game, profile), "ok"
        except BudgetExceededError as exc:
            exact_status = f"skipped: {exc}"
    return RandomPoaDistribution(values, counts, [(v / so_cost, p) for v, p in exact],
                                 exact_status)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def compute_poa_report(game: Game, config: SolverConfig = SolverConfig()) -> PoaReport:
    """All applicable ratios for one game, with solver fallbacks recorded."""
    rho_nat, nonat_ne, nonat_so = nonatomic_poa(game, config)

    atomic_value = None
    equilibria = None
    try:
        equilibria = enumerate_atomic_equilibria(game, config)
        atomic_value, atomic_status = atomic_poa(game, config, equilibria)
    except BudgetExceededError:
        br = best_response_atomic(game, config)
        witness = (f"best-response cost {float(br.cost):.6g} is a lower-bound witness"
                   if br.converged else
                   f"best response did not converge in {br.iterations} moves")
        atomic_status = f"unavailable: enumeration budget exceeded; {witness}"

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
        equilibria=equilibria,
    )
    report.validate(config.tolerance)
    return report
