"""Reference values computed without poakit, for the benchmark's output checks.

Every game the benchmark generates is a set of groups on parallel links:
each path of a group is one arc, and no two groups share an arc.  That
keeps each reference a short, separate computation: brute force over
per-path user counts, water-filling for non-atomic flows on affine links,
greedy assignment for unit-user optima, and per-arc Bernoulli convolution
for the expected cost of a mixed profile.  None of it imports poakit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from fractions import Fraction

# Closed forms from the paper for the bundled games.
QUADRATIC_CONSTANT_NONATOMIC = 18.0 / (18.0 - math.sqrt(6.0))
QUADRATIC_CONSTANT_MIXED = 5.0 - 2.5 * math.sqrt(2.0)
AFFINE_OFFSET_RATIO = Fraction(8, 7)
LINEAR_DOUBLE_ATOMIC = Fraction(4, 3)


def integral(value):
    """An int when the rational is whole, so scans run in integer arithmetic."""
    return int(value) if value.denominator == 1 else value


def cost(coeffs, x):
    """Polynomial with coefficients highest degree first, by Horner's rule."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def parallel_groups(document: dict) -> list:
    """Per group: (arc coefficient lists, one per path; user demands).

    Raises ValueError unless every path is one arc and groups share no arc.
    """
    arcs = {a["id"]: [integral(Fraction(c)) for c in a["coeffs"]] for a in document["arcs"]}
    seen = set()
    groups = []
    for g in document["groups"]:
        path_arcs = []
        for path in g["paths"]:
            if len(path) != 1 or path[0] in seen:
                raise ValueError("reference needs disjoint parallel-link groups")
            seen.add(path[0])
            path_arcs.append(arcs[path[0]])
        groups.append((path_arcs, [integral(Fraction(u["demand"])) for u in g["users"]]))
    return groups


def _compositions(total: int, parts: int):
    """All ways to put ``total`` identical users on ``parts`` paths (stars and bars)."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(total + parts - 2 - prev)
        yield counts


def scan_group(path_coeffs, demands):
    """Brute force over one group's pure profiles: (worst NE cost, optimum cost).

    Users of equal demand are interchangeable, so a profile is a per-path
    count for each demand class.  A profile is an equilibrium when no user
    can strictly lower its own path cost by moving alone.  Exact when the
    inputs are rational.
    """
    k = len(path_coeffs)
    classes = sorted(Counter(demands).items())
    worst = None
    best = None
    for state in itertools.product(*[list(_compositions(m, k)) for _, m in classes]):
        loads = [0] * k
        for (d, _), counts in zip(classes, state):
            for i, c in enumerate(counts):
                if c:
                    loads[i] += d * c
        here = [cost(path_coeffs[i], loads[i]) for i in range(k)]
        total = sum(x * c for x, c in zip(loads, here))
        if best is None or total < best:
            best = total
        stable = all(
            cost(path_coeffs[j], loads[j] + d) >= here[i]
            for (d, _), counts in zip(classes, state)
            for i in range(k) if counts[i]
            for j in range(k) if j != i)
        if stable and (worst is None or total > worst):
            worst = total
    return worst, best


def scan_game(document: dict):
    """(worst NE cost, optimum cost) of a game of disjoint parallel-link groups."""
    worst = 0
    best = 0
    for path_coeffs, demands in parallel_groups(document):
        w, b = scan_group(path_coeffs, demands)
        if w is None:
            return None, None
        worst += w
        best += b
    return worst, best


def unit_user_optimum(path_coeffs, users: int):
    """Optimum total cost of ``users`` unit users on parallel links.

    Link costs are convex, so adding users one at a time to the link with
    the smallest increase in total cost is optimal.
    """
    def step(i, x):
        return (x + 1) * cost(path_coeffs[i], x + 1) - x * cost(path_coeffs[i], x)

    heap = [(step(i, 0), i) for i in range(len(path_coeffs))]
    heapq.heapify(heap)
    loads = [0] * len(path_coeffs)
    total = 0
    for _ in range(users):
        inc, i = heapq.heappop(heap)
        total += inc
        loads[i] += 1
        heapq.heappush(heap, (step(i, loads[i]), i))
    return total


def waterfill(slopes, offsets, demand):
    """Split ``demand`` over links costing a*x + b so that used links cost the same.

    Slopes and offsets are integers.  Returns (common cost level, per-link
    flow), exactly.  The links used are those with offset below the level.
    """
    order = sorted(range(len(slopes)), key=lambda i: offsets[i])
    inv = Fraction(0)
    weighted = Fraction(0)
    level = None
    for pos, i in enumerate(order):
        inv += Fraction(1, slopes[i])
        weighted += Fraction(offsets[i], slopes[i])
        level = (demand + weighted) / inv
        nxt = order[pos + 1] if pos + 1 < len(order) else None
        if nxt is None or level <= offsets[nxt]:
            break
    flows = [max(Fraction(0), (level - b) / a) for a, b in zip(slopes, offsets)]
    return level, flows


def affine_nonatomic(slopes, offsets, demand):
    """(equilibrium cost, optimum cost) of one group on affine parallel links.

    The optimum equalizes marginal costs 2a*x + b, which is water-filling
    with doubled slopes.
    """
    level, _ = waterfill(slopes, offsets, demand)
    _, so_flows = waterfill([2 * a for a in slopes], offsets, demand)
    so_cost = sum(x * (a * x + b) for x, a, b in zip(so_flows, slopes, offsets))
    return level * demand, so_cost


def expected_total_cost(arcs: dict, users) -> float:
    """E[sum_a f_a * cost_a(f_a)] of a mixed profile, by per-arc convolution.

    ``arcs`` maps arc id to coefficients; ``users`` lists (demand,
    {arc id: probability the user's path uses the arc}).  Users choose
    independently, so each arc's flow is a sum of independent scaled
    Bernoulli variables whose distribution is built one user at a time.
    """
    total = 0.0
    for aid, coeffs in arcs.items():
        dist = {0.0: 1.0}
        for demand, probs in users:
            q = probs.get(aid, 0.0)
            if q == 0.0:
                continue
            nxt: dict = {}
            for v, p in dist.items():
                nxt[v] = nxt.get(v, 0.0) + p * (1.0 - q)
                nxt[v + demand] = nxt.get(v + demand, 0.0) + p * q
            dist = nxt
        fc = [float(c) for c in coeffs]
        total += sum(p * v * cost(fc, v) for v, p in dist.items())
    return total


def two_commodity_mixed_profile() -> list:
    """Symmetric mixed equilibrium of the bundled two-commodity game.

    Group od1 (arcs x, x) is indifferent at probability 1/2.  In group od2
    (arcs x^3 and 8x^3 + 1, two unit users) let x be each user's
    probability of taking x^3.  Equal expected arc costs,
    E[B^3] = 8 E[C^3] + 1 with B ~ Bin(2, x) and C ~ Bin(2, 1 - x), reduce
    to 42x^2 - 114x + 65 = 0, whose root in [0, 1] is (114 - sqrt(2076)) / 84.
    Returned in the shape of a ``--profile`` document.
    """
    x = (114.0 - math.sqrt(2076.0)) / 84.0
    return [[[0.5, 0.5]] * 2, [[x, 1.0 - x]] * 2]
