"""The exact atomic scan of a large component, in numpy blocks.

``_ComponentScan.search`` hands a component here when it has at least
``VECTOR_MIN_STATES`` states and every load, cost and sum the scan
forms fits in int64; this module, and numpy with it, is imported only then.
The results are those of the state-by-state scan, which the tests keep as
the oracle: the same equilibria in the same order, with the same costs,
and the same first cheapest state.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .game import _horner
from .solvers import _ComponentScan, _Lattice, _numbered_paths

VECTOR_BLOCK = 1 << 12  # states per block: faster than 2**10, as fast as 2**14 in less memory


def scan_blocks(comp: _ComponentScan, lattice: _Lattice) -> tuple:
    """``comp.search()`` over blocks of VECTOR_BLOCK states.

    Per block: each class's counts (paths x states), unranked from the
    state numbers, so no table of a class or of the component is built;
    then the arcs' loads and costs and the states' total costs (arcs x
    states, int64, costs by Horner's rule on the lattice's scaled integer
    coefficients); then the deviation test, one path at a time.
    """
    total = comp.state_count()
    classes = []  # per class: stride, ways, way tables, users, numbered paths, one user's load
    stride = total
    for cls in comp.classes:
        paths = _numbered_paths(comp.game.groups[cls.gi].paths, comp.arc_ids)
        ways = comb(cls.size + len(paths) - 1, len(paths) - 1)
        stride //= ways
        # Per path but the last two: tables[k][m], the ways to split m users
        # over paths k .. last.  Only three or more paths need one, and then
        # the class has fewer than sqrt(2 * ways) users.
        tables = [np.array([comb(m + q, q) for m in range(cls.size + 1)], np.int64)
                  for q in range(len(paths) - 1, 1, -1)]
        classes.append((stride, ways, tables, cls.size, paths, lattice.units[cls.demand]))

    found: list = []
    cheapest = None
    for start in range(0, total, VECTOR_BLOCK):
        states = np.arange(start, min(start + VECTOR_BLOCK, total))
        loads = np.zeros((len(comp.arc_ids), len(states)), np.int64)
        counts = []
        for stride, ways, tables, users, paths, unit in classes:
            # The class's way numbers, class 0 outermost, unranked in
            # _compositions' order.  Ways with fewer users on path k come
            # first, and tables[k][m] ways put left - m or more users on it,
            # so its count is left - m for the least m with
            # tables[k][m] >= tables[k][left] - rank.
            rank = states // stride % ways
            left = np.full_like(rank, users)
            rows = []
            for table in tables:
                m = np.searchsorted(table, table[left] - rank)
                rows.append(left - m)
                rank = rank - (table[left] - table[m])
                left = m
            rows += [rank, left - rank] if len(paths) > 1 else [left]
            counts.append(np.array(rows))
            for path, row in zip(paths, rows):
                for a in path:
                    loads[a] += row * unit
        costs = np.empty_like(loads)
        for a, coeffs in enumerate(lattice.scaled):
            costs[a] = _horner(coeffs, loads[a])
        state_costs = (loads * costs).sum(axis=0)
        raised: dict = {}

        def raised_cost(unit, a):
            """Arc a's costs with one more user of load ``unit``.  Only a user
            not on a moves onto it, so the load is within a's reach in every
            state the test reads; the others are capped."""
            if (unit, a) not in raised:
                raised[unit, a] = _horner(lattice.scaled[a],
                                          np.minimum(loads[a] + unit, lattice.reach[a]))
            return raised[unit, a]

        stable = np.ones(len(states), bool)
        for rows, (*_, paths, unit) in zip(counts, classes):
            for p, (path, row) in enumerate(zip(paths, rows)):
                here = set(path)
                stay = costs[list(path)].sum(axis=0)
                for q, other in enumerate(paths):
                    if q != p:
                        move = sum(costs[a] if a in here else raised_cost(unit, a)
                                   for a in other)
                        stable &= ~((row > 0) & (move < stay))

        def assignment(i: int) -> list:
            return [tuple(rows[:, i].tolist()) for rows in counts]

        i = int(state_costs.argmin())
        if cheapest is None or state_costs[i] < cheapest[1]:
            cheapest = (assignment(i), int(state_costs[i]))
        for i in np.flatnonzero(stable).tolist():
            found.append((comp.representative(assignment(i)),
                          Fraction(int(state_costs[i]), lattice.denominator)))
    return found, cheapest[0], Fraction(cheapest[1], lattice.denominator)
