"""Domain model: polynomial arc costs, games, and the three profile kinds.

A game couples an arc set (each arc carrying a nonnegative-coefficient
polynomial cost) with user groups.  Each group owns a list of paths
(arbitrary nonempty arc sets, not necessarily connected) and a list of
users with positive demands.  Costs are evaluated exactly in rational
arithmetic whenever the inputs are rational, and in floating point
otherwise; all evaluation helpers accept either.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence, Union

Number = Union[int, float, Fraction]

PROB_TOL = 1e-12


class GameSchemaError(ValueError):
    """Validation failure, carrying the offending document path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _as_number(value, path: str, *, allow_float: bool = True) -> Number:
    """Parse a scalar that may be an int, float, or a "num/den" string."""
    if isinstance(value, bool):
        raise GameSchemaError(path, "expected a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not allow_float:
            raise GameSchemaError(path, "expected an exact rational")
        if not math.isfinite(value):
            raise GameSchemaError(path, f"expected a finite number, got {value}")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise GameSchemaError(path, f"cannot parse rational {value!r}") from None
    raise GameSchemaError(path, f"expected a number, got {type(value).__name__}")


def _as_list(value, path: str) -> Sequence:
    """A document array (any sequence but a string)."""
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise GameSchemaError(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_object(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise GameSchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class CostPolynomial:
    """Nonnegative-coefficient polynomial cost, highest-degree term first.

    ``coefficients[0]`` multiplies x**degree.  The leading coefficient must
    be positive (no free arcs) unless the polynomial is an explicit limit
    construction, where identically-zero costs are permitted.
    """

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise GameSchemaError("coeffs", "empty coefficient list")
        for i, c in enumerate(self.coefficients):
            if c < 0:
                raise GameSchemaError(f"coeffs[{i}]", "coefficient must be >= 0")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, x: Number) -> Number:
        # Horner evaluation; stays exact for Fraction inputs.
        acc = self.coefficients[0]
        for c in self.coefficients[1:]:
            acc = acc * x + c
        return acc

    __call__ = value

    def derivative(self) -> "CostPolynomial":
        d = self.degree
        if d == 0:
            return CostPolynomial((Fraction(0),))
        coeffs = tuple(self.coefficients[i] * (d - i) for i in range(d))
        return CostPolynomial(coeffs)

    def marginal(self) -> "CostPolynomial":
        """Cost of one more unit: tau(x) + x * tau'(x)."""
        d = self.degree
        coeffs = tuple(self.coefficients[i] * (d - i + 1) for i in range(d + 1))
        return CostPolynomial(coeffs)

    def integral_value(self, x: Number) -> Number:
        """Integral of the polynomial from 0 to x (potential contribution)."""
        d = self.degree
        acc = 0
        for i, c in enumerate(self.coefficients):
            power = d - i + 1
            acc += c * x**power / power
        return acc

    def scaled(self, demand_scale: Number, divisor: Number) -> "CostPolynomial":
        """Polynomial x -> tau(x * demand_scale) / divisor."""
        d = self.degree
        coeffs = tuple(self.coefficients[i] * demand_scale ** (d - i) / divisor for i in range(d + 1))
        return CostPolynomial(coeffs)


@dataclass(frozen=True)
class Group:
    gid: str
    paths: tuple  # tuple of tuples of arc ids; identity is positional
    demands: tuple  # per-user demand, all > 0

    @cached_property
    def total_demand(self) -> Number:
        return sum(self.demands)

    @property
    def n_users(self) -> int:
        return len(self.demands)

    @property
    def n_paths(self) -> int:
        return len(self.paths)


class Game:
    """Immutable congestion game over explicit path lists.

    Paths of distinct groups must be disjoint as arc sets (the same arc may
    appear in paths of several groups, but no two groups may share an entire
    path).  Paths need not be connected in any underlying graph.
    """

    def __init__(self, arcs: Mapping[str, CostPolynomial], groups: Sequence[Group], *,
                 allow_zero_costs: bool = False):
        self._arcs = MappingProxyType(dict(arcs))
        self._groups = tuple(groups)
        self._allow_zero_costs = allow_zero_costs
        self._validate()
        self._path_keys = tuple(
            (gi, pi) for gi, g in enumerate(self._groups) for pi in range(g.n_paths)
        )
        self._key_index = {key: i for i, key in enumerate(self._path_keys)}
        self._arc_ids = tuple(self._arcs.keys())

    def _validate(self):
        if not self._arcs:
            raise GameSchemaError("arcs", "game needs at least one arc")
        if not self._groups:
            raise GameSchemaError("groups", "game needs at least one group")
        for aid, poly in self._arcs.items():
            if not self._allow_zero_costs and poly.coefficients[0] <= 0:
                raise GameSchemaError(f"arcs[{aid}].coeffs[0]", "leading coefficient must be > 0")
        seen_ids = set()
        seen_paths: dict[frozenset, str] = {}
        for gi, g in enumerate(self._groups):
            where = f"groups[{gi}]"
            if g.gid in seen_ids:
                raise GameSchemaError(where + ".id", f"duplicate group id {g.gid!r}")
            seen_ids.add(g.gid)
            if g.n_paths == 0:
                raise GameSchemaError(where + ".paths", "group needs at least one path")
            if g.n_users == 0:
                raise GameSchemaError(where + ".users", "group needs at least one user")
            for pi, path in enumerate(g.paths):
                pwhere = f"{where}.paths[{pi}]"
                if len(path) == 0:
                    raise GameSchemaError(pwhere, "path must be a nonempty arc set")
                if len(set(path)) != len(path):
                    raise GameSchemaError(pwhere, "path repeats an arc id")
                for aid in path:
                    if aid not in self._arcs:
                        raise GameSchemaError(pwhere, f"unknown arc id {aid!r}")
                key = frozenset(path)
                owner = seen_paths.get(key)
                if owner is not None and owner != g.gid:
                    raise GameSchemaError(pwhere, "disjointness violated: path "
                                          f"{sorted(key)} already belongs to group {owner!r}")
                seen_paths[key] = g.gid
            for ui, d in enumerate(g.demands):
                if not d > 0:
                    raise GameSchemaError(f"{where}.users[{ui}].demand", "demand must be > 0")

    # -- basic accessors -------------------------------------------------
    @property
    def arcs(self) -> Mapping[str, CostPolynomial]:
        """Arc id -> cost polynomial, as one read-only view of the game's map."""
        return self._arcs

    @property
    def groups(self) -> tuple:
        return self._groups

    @property
    def arc_ids(self) -> tuple:
        return self._arc_ids

    @property
    def path_keys(self) -> tuple:
        """All (group_index, path_index) pairs in display order."""
        return self._path_keys

    @property
    def n_paths(self) -> int:
        return len(self._path_keys)

    @property
    def n_arcs(self) -> int:
        return len(self._arcs)

    @property
    def n_users(self) -> int:
        return sum(g.n_users for g in self._groups)

    @property
    def total_demand(self) -> Number:
        return sum(g.total_demand for g in self._groups)

    @property
    def d_max(self) -> Number:
        return max(max(g.demands) for g in self._groups)

    @cached_property
    def is_rational(self) -> bool:
        ok = all(isinstance(c, Fraction) for p in self._arcs.values() for c in p.coefficients)
        return ok and all(isinstance(d, (int, Fraction)) for g in self._groups for d in g.demands)

    @property
    def degrees(self) -> tuple:
        return tuple(p.degree for p in self._arcs.values())

    def group_index(self, gid: str) -> int:
        for gi, g in enumerate(self._groups):
            if g.gid == gid:
                return gi
        raise GameSchemaError("groups", f"unknown group id {gid!r}")

    # -- flow evaluation -------------------------------------------------
    def arc_flow(self, flow: "PathFlow") -> dict:
        """Per-arc flow induced by a path flow: f_a = sum of f_p over p containing a."""
        out = {aid: 0 for aid in self._arc_ids}
        for (gi, pi), v in flow.items():
            if v == 0:
                continue
            for aid in self._groups[gi].paths[pi]:
                out[aid] = out[aid] + v
        return out

    def arc_cost_map(self, flow: "PathFlow") -> dict:
        fa = self.arc_flow(flow)
        return {aid: self._arcs[aid].value(fa[aid]) for aid in self._arc_ids}

    def path_cost(self, flow: "PathFlow", gi: int, pi: int, arc_costs: Mapping | None = None) -> Number:
        if arc_costs is None:
            arc_costs = self.arc_cost_map(flow)
        return sum(arc_costs[aid] for aid in self._groups[gi].paths[pi])

    def total_cost(self, flow: "PathFlow") -> Number:
        fa = self.arc_flow(flow)
        return sum(v * self._arcs[aid].value(v) for aid, v in fa.items())


class PathFlow:
    """Per-path nonnegative flow, aligned with ``game.path_keys``."""

    __slots__ = ("game", "_values")

    def __init__(self, game: Game, values: Sequence[Number]):
        if len(values) != game.n_paths:
            raise ValueError(f"expected {game.n_paths} path values, got {len(values)}")
        for v in values:
            if v < 0:
                raise ValueError("path flow values must be >= 0")
        self.game = game
        self._values = tuple(values)

    def items(self):
        return zip(self.game.path_keys, self._values)

    def values(self) -> tuple:
        return self._values

    def value(self, gi: int, pi: int) -> Number:
        return self._values[self.game._key_index[(gi, pi)]]

    def as_dict(self) -> dict:
        return dict(self.items())

    def as_float(self) -> "PathFlow":
        return PathFlow(self.game, [float(v) for v in self._values])

    def __repr__(self):
        return f"PathFlow({self.as_dict()})"


@dataclass(frozen=True)
class AtomicProfile:
    """One chosen path index per user, grouped as the game is."""

    choices: tuple  # tuple per group: tuple of path indices, one per user

    def validate(self, game: Game) -> None:
        if len(self.choices) != len(game.groups):
            raise ValueError("profile group count mismatch")
        for gi, (g, picks) in enumerate(zip(game.groups, self.choices)):
            if len(picks) != g.n_users:
                raise ValueError(f"groups[{gi}]: expected {g.n_users} choices")
            for pi in picks:
                if not 0 <= pi < g.n_paths:
                    raise ValueError(f"groups[{gi}]: path index {pi} out of range")

    def induced_flow(self, game: Game) -> PathFlow:
        acc = {key: 0 for key in game.path_keys}
        for gi, (g, picks) in enumerate(zip(game.groups, self.choices)):
            for d, pi in zip(g.demands, picks):
                acc[(gi, pi)] = acc[(gi, pi)] + d
        return PathFlow(game, [acc[key] for key in game.path_keys])

    def as_mixed(self, game: Game) -> "MixedProfile":
        rows = []
        for g, picks in zip(game.groups, self.choices):
            rows.append(tuple(
                tuple(Fraction(1) if pi == choice else Fraction(0) for pi in range(g.n_paths))
                for choice in picks
            ))
        return MixedProfile(tuple(rows))


@dataclass(frozen=True)
class MixedProfile:
    """Per-user probability vector over the user's group paths."""

    probabilities: tuple  # per group: tuple per user: tuple of path probabilities

    def validate(self, game: Game) -> None:
        if len(self.probabilities) != len(game.groups):
            raise ValueError("profile group count mismatch")
        for gi, (g, rows) in enumerate(zip(game.groups, self.probabilities)):
            if len(rows) != g.n_users:
                raise ValueError(f"groups[{gi}]: expected {g.n_users} probability rows")
            for ui, row in enumerate(rows):
                if len(row) != g.n_paths:
                    raise ValueError(f"groups[{gi}].users[{ui}]: expected {g.n_paths} entries")
                if any(isinstance(p, bool) or not -PROB_TOL <= p < math.inf for p in row):
                    raise ValueError(f"groups[{gi}].users[{ui}]: probabilities must be "
                                     "finite numbers >= 0")
                if abs(sum(row) - 1) > PROB_TOL:
                    raise ValueError(f"groups[{gi}].users[{ui}]: probabilities sum to {sum(row)}")

    def expected_flow(self, game: Game) -> PathFlow:
        acc = {key: 0 for key in game.path_keys}
        for gi, (g, rows) in enumerate(zip(game.groups, self.probabilities)):
            for d, row in zip(g.demands, rows):
                for pi, p in enumerate(row):
                    if p:
                        acc[(gi, pi)] = acc[(gi, pi)] + d * p
        return PathFlow(game, [acc[key] for key in game.path_keys])

    @staticmethod
    def uniform(game: Game) -> "MixedProfile":
        rows = []
        for g in game.groups:
            p = Fraction(1, g.n_paths)
            rows.append(tuple(tuple(p for _ in range(g.n_paths)) for _ in range(g.n_users)))
        return MixedProfile(tuple(rows))


def arc_users(game: Game, profile: MixedProfile, aid: str):
    """(group index, demand, probability its path crosses ``aid``) for each
    user whose group has a path through ``aid``, in group and user order."""
    for gi, g in enumerate(game.groups):
        touching = [pi for pi in range(g.n_paths) if aid in g.paths[pi]]
        if touching:
            for d, row in zip(g.demands, profile.probabilities[gi]):
                yield gi, d, sum(row[pi] for pi in touching)


def expected_arc_flow_and_variance(game: Game, profile: MixedProfile) -> dict:
    """Exact per-arc (mean, variance) of the random arc flow of a mixed profile.

    Users pick paths independently, so the arc flow is a weighted sum of
    independent Bernoulli indicators: mean sum(d_i * q_ia), variance
    sum(d_i^2 * q_ia * (1 - q_ia)).
    """
    profile.validate(game)
    out = {}
    for aid in game.arc_ids:
        mean = 0
        var = 0
        for _, d, q in arc_users(game, profile, aid):
            mean += d * q
            var += d * d * q * (1 - q)
        out[aid] = (mean, var)
    return out


SAMPLE_CHUNK = 1 << 16  # samples per generator stream; also the sampling shard size


def sample_uniforms(seed: int, start: int, count: int, width: int):
    """Uniforms for samples [start, start+count), ``width`` draws per sample.

    Sample i always reads row i % SAMPLE_CHUNK of the chunk-i//SAMPLE_CHUNK
    stream keyed by (seed, chunk), making every sample a pure function of
    (seed, i): two calls on adjacent ranges give the rows of one call on
    their union, wherever the split falls.
    """
    import numpy as np

    out = np.empty((count, width))
    pos = 0
    while pos < count:
        index = start + pos
        chunk = index // SAMPLE_CHUNK
        offset = index % SAMPLE_CHUNK
        take = min(count - pos, SAMPLE_CHUNK - offset)
        gen = np.random.Generator(np.random.Philox(
            seed=np.random.SeedSequence(entropy=(int(seed), int(chunk)))))
        block = gen.random((offset + take, width))
        out[pos:pos + take] = block[offset:]
        pos += take
    return out


def draw_atomic_profile(game: Game, profile: MixedProfile, seed: int, index: int) -> AtomicProfile:
    """Draw realization ``index`` of a mixed profile; pure in (seed, index)."""
    draws = sample_uniforms(seed, index, 1, game.n_users)[0]
    picks = []
    slot = 0
    for gi, g in enumerate(game.groups):
        row = []
        for ui in range(g.n_users):
            u = draws[slot]
            slot += 1
            acc = 0.0
            choice = g.n_paths - 1
            for pi, p in enumerate(profile.probabilities[gi][ui]):
                acc += float(p)
                if u < acc:
                    choice = pi
                    break
            row.append(choice)
        picks.append(tuple(row))
    return AtomicProfile(tuple(picks))


# -- document loading ----------------------------------------------------

def load_game(document: Union[str, Mapping]) -> Game:
    """Build a validated game from a JSON document (text or parsed mapping).

    Schema: ``{"arcs": [{"id", "coeffs": [highest degree first]}],
    "groups": [{"id", "paths": [[arc ids]], "users": [{"demand"}]}]}``.
    Rational values may be written as numbers or "num/den" strings.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GameSchemaError("$", f"invalid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, Mapping):
        raise GameSchemaError("$", "top level must be an object")
    for key in ("arcs", "groups"):
        if key not in doc:
            raise GameSchemaError(key, "missing required key")

    arcs = {}
    for i, entry in enumerate(_as_list(doc["arcs"], "arcs")):
        where = f"arcs[{i}]"
        if "id" not in _as_object(entry, where) or "coeffs" not in entry:
            raise GameSchemaError(where, "arc needs 'id' and 'coeffs'")
        aid = str(entry["id"])
        if aid in arcs:
            raise GameSchemaError(where + ".id", f"duplicate arc id {aid!r}")
        coeffs = _as_list(entry["coeffs"], where + ".coeffs")
        if not coeffs:
            raise GameSchemaError(where + ".coeffs", "expected a nonempty list")
        vals = [_as_number(c, f"{where}.coeffs[{j}]") for j, c in enumerate(coeffs)]
        if vals[0] <= 0:
            raise GameSchemaError(where + ".coeffs[0]", "leading coefficient must be > 0")
        for j, v in enumerate(vals):
            if v < 0:
                raise GameSchemaError(f"{where}.coeffs[{j}]", "coefficient must be >= 0")
        arcs[aid] = CostPolynomial(tuple(vals))

    groups = []
    for i, entry in enumerate(_as_list(doc["groups"], "groups")):
        where = f"groups[{i}]"
        if "id" not in _as_object(entry, where):
            raise GameSchemaError(where, "group needs an 'id'")
        paths = entry.get("paths")
        users = entry.get("users")
        if not paths:
            raise GameSchemaError(where + ".paths", "group needs at least one path")
        if not users:
            raise GameSchemaError(where + ".users", "group needs at least one user")
        path_tuples = []
        for pi, path in enumerate(_as_list(paths, where + ".paths")):
            path = _as_list(path, f"{where}.paths[{pi}]")
            path_tuples.append(tuple(str(a) for a in path))
        demands = []
        for ui, user in enumerate(_as_list(users, where + ".users")):
            if not isinstance(user, Mapping) or "demand" not in user:
                raise GameSchemaError(f"{where}.users[{ui}]", "user needs a 'demand'")
            d = _as_number(user["demand"], f"{where}.users[{ui}].demand")
            if not d > 0:
                raise GameSchemaError(f"{where}.users[{ui}].demand", "demand must be > 0")
            demands.append(d)
        groups.append(Group(str(entry["id"]), tuple(path_tuples), tuple(demands)))

    return Game(arcs, groups)


def dump_game(game: Game) -> dict:
    """Inverse of load_game, for writing derived games to disk."""
    def enc(x):
        if isinstance(x, Fraction):
            return str(x) if x.denominator != 1 else x.numerator
        return x

    return {
        "arcs": [{"id": aid, "coeffs": [enc(c) for c in poly.coefficients]}
                 for aid, poly in game.arcs.items()],
        "groups": [{"id": g.gid,
                    "paths": [list(p) for p in g.paths],
                    "users": [{"demand": enc(d)} for d in g.demands]}
                   for g in game.groups],
    }
