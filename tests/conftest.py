"""Shared game builders and the deterministic instance pool for the suite."""

import random
from fractions import Fraction

import pytest

from poakit import CostPolynomial, Game, Group
from poakit.runner import asset_path


def poly(*coeffs) -> CostPolynomial:
    return CostPolynomial(tuple(Fraction(c) for c in coeffs))


def parallel_game(arc_coeffs, demands, gid="od") -> Game:
    """Single group, one path per arc."""
    arcs = {f"a{i}": poly(*cs) for i, cs in enumerate(arc_coeffs)}
    paths = tuple((f"a{i}",) for i in range(len(arc_coeffs)))
    return Game(arcs, [Group(gid, paths, tuple(Fraction(d) for d in demands))])


def quadratic_constant_game() -> Game:
    """Two users of demand 2 on parallel arcs x^2 and 2."""
    return Game({"u": poly(1, 0, 0), "l": poly(2)},
                [Group("od", (("u",), ("l",)), (Fraction(2), Fraction(2)))])


def affine_offset_game(n: int = 1) -> Game:
    """4n users of demand 1/(4n) on parallel arcs x and x+1; total demand 1."""
    return Game({"u": poly(1, 0), "l": poly(1, 1)},
                [Group("od", (("u",), ("l",)), (Fraction(1, 4 * n),) * (4 * n))])


def linear_double_game(n: int = 1) -> Game:
    """Two users of demand n on parallel arcs x and 2x."""
    return Game({"u": poly(1, 0), "l": poly(2, 0)},
                [Group("od", (("u",), ("l",)), (Fraction(n), Fraction(n)))])


def two_commodity_game(demand1, demand2) -> Game:
    """Two disjoint commodities: (x, x) and (x^3, 8x^3 + 1), two users each."""
    return Game({"a1": poly(1, 0), "a2": poly(1, 0),
                 "b1": poly(1, 0, 0, 0), "b2": poly(8, 0, 0, 1)},
                [Group("od1", (("a1",), ("a2",)), (demand1, demand1)),
                 Group("od2", (("b1",), ("b2",)), (demand2, demand2))])


def no_equilibrium_game() -> Game:
    """Weighted two-player game with a best-response 4-cycle and no pure NE.

    Players of demand 1 and 2 cross over four resources; the heavy player's
    strategies each share one resource with each light strategy.  Costs x^5
    and (33/100) x^6 put the increments in the narrow window where every
    state admits an improving move (checked by exhaustive enumeration).
    """
    f = poly(1, 0, 0, 0, 0, 0)
    h = poly(Fraction(33, 100), 0, 0, 0, 0, 0, 0)
    return Game({"s11": f, "s12": h, "s21": h, "s22": f},
                [Group("light", (("s11", "s12"), ("s21", "s22")), (Fraction(1),)),
                 Group("heavy", (("s11", "s21"), ("s12", "s22")), (Fraction(2),))])


# Both groups' paths differ in two arcs, so the mixed solver's expected cost
# gap adds two arc terms per path, in an order that must not follow hashing.
TWO_ARC_DIFFERENCE_GAME = {
    "arcs": [{"id": "a0", "coeffs": [1, 2, 4, 1]}, {"id": "a1", "coeffs": [1, 2]},
             {"id": "a2", "coeffs": [4, 0, 3, 3]}, {"id": "a3", "coeffs": [2, 3, 3, 3]}],
    "groups": [{"id": "g0", "paths": [["a1", "a2"], ["a0", "a1", "a3"]],
                "users": [{"demand": 3}]},
               {"id": "g1", "paths": [["a1", "a2", "a3"], ["a0", "a2", "a3"]],
                "users": [{"demand": 1}, {"demand": 2}]}],
}


def asset_text(name: str) -> str:
    return asset_path(name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Deterministic instance pool: same-degree unweighted games, degree 1..3,
# at most 6 arcs and 12 users.  Used by the dominance / scaling / residual
# acceptance criteria, which all quantify over "every instance" of this pool.
# ---------------------------------------------------------------------------

def build_instance_pool(count: int = 52, seed: int = 20240) -> list:
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        degree = rng.choice([1, 2, 3])
        n_arcs = rng.randint(2, 6)
        arcs = {}
        for i in range(n_arcs):
            coeffs = [rng.randint(1, 5)] + [rng.choice([0, 0, 1, 2]) for _ in range(degree)]
            arcs[f"a{i}"] = poly(*coeffs)
        ids = list(arcs)
        n_groups = rng.choice([1, 1, 1, 2])
        total_users = rng.randint(2, 12)
        groups = []
        taken = set()
        ok = True
        for gi in range(n_groups):
            n_paths = 2 if rng.random() < 0.7 else rng.choice([2, 3])
            paths = []
            for _ in range(n_paths):
                for _attempt in range(40):
                    size = rng.choice([1, 1, 2])
                    path = tuple(sorted(rng.sample(ids, size)))
                    if frozenset(path) not in taken:
                        taken.add(frozenset(path))
                        paths.append(path)
                        break
                else:
                    ok = False
            if not ok:
                break
            users = total_users // n_groups if gi == n_groups - 1 \
                else max(1, total_users // n_groups)
            groups.append(Group(f"g{gi}", tuple(paths), (Fraction(1),) * max(1, users)))
        if not ok:
            continue
        try:
            pool.append(Game(arcs, groups))
        except Exception:
            continue
    return pool


@pytest.fixture(scope="session")
def instance_pool():
    return build_instance_pool()
