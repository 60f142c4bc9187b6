"""Domain model: polynomial arc costs, games, and the three profile kinds.

A game couples an arc set (each arc carrying a nonnegative-coefficient
polynomial cost) with user groups.  Each group owns a list of paths
(arbitrary nonempty arc sets, not necessarily connected) and a list of
users with positive demands.  Every coefficient and demand is held as a
Fraction: an int or a finite float is converted to its exact value, so
costs at exact loads are exact.  The evaluation helpers also take float
loads, such as the non-atomic solvers' path flows, and then give floats.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from functools import cached_property
from numbers import Real
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence, Union

Number = Union[int, float, Fraction]

PROB_TOL = 1e-12


class GameSchemaError(ValueError):
    """Validation failure, carrying the offending document path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# A number string: ASCII [+-]digits, [+-]digits/digits or a plain decimal.
_NUMBER_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _exact(value, path: str) -> Fraction:
    """The exact value of an int (a bool too), a Fraction or a finite float;
    GameSchemaError at ``path`` for any other value."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise GameSchemaError(path, f"expected a finite number, got {value}")
    if not isinstance(value, (int, float, Fraction)):
        raise GameSchemaError(path, f"expected a number, got {type(value).__name__}")
    return Fraction(value)


def _as_number(value, path: str) -> Fraction:
    """Parse a document scalar: a number but a bool, or a number string (see
    ``_NUMBER_STRING``; ``Fraction`` alone would also take spaces, ``_``,
    exponents and non-ASCII digits)."""
    if isinstance(value, bool):
        raise GameSchemaError(path, "expected a number")
    if not isinstance(value, str):
        return _exact(value, path)
    if not _NUMBER_STRING.fullmatch(value):
        raise GameSchemaError(path, f"cannot parse rational {value!r}: expected "
                                    "[+-]digits, [+-]digits/digits or a plain decimal")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise GameSchemaError(path, f"cannot parse rational {value!r}") from None


def _as_list(value, path: str) -> Sequence:
    """A document array (any sequence but a string)."""
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise GameSchemaError(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_object(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise GameSchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _horner(coeffs: Sequence, x: Number) -> Number:
    """Horner's rule, highest-degree coefficient first; exact on Fractions."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


class CostPolynomial:
    """Nonnegative-coefficient polynomial cost, highest-degree term first.

    ``coefficients[0]`` multiplies x**degree; each is held as the Fraction
    of its exact value (see ``_exact``).  The leading coefficient must be
    positive (no free arcs) unless the polynomial is an explicit limit
    construction, where identically-zero costs are permitted.  Two
    polynomials are equal when their coefficients are.
    """

    def __init__(self, coefficients: tuple):
        if not coefficients:
            raise GameSchemaError("coeffs", "expected a nonempty list")
        coefficients = tuple(_exact(c, f"coeffs[{i}]") for i, c in enumerate(coefficients))
        for i, c in enumerate(coefficients):
            if c < 0:
                raise GameSchemaError(f"coeffs[{i}]", "coefficient must be >= 0")
        self.coefficients = coefficients

    def __eq__(self, other):
        return type(other) is CostPolynomial and other.coefficients == self.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def float_coefficients(self) -> tuple:
        """``coefficients`` as floats, converted on first read; OverflowError
        on every read while one is past the float range."""
        return tuple(float(c) for c in self.coefficients)

    def value(self, x: Number) -> Number:
        return _horner(self.coefficients, x)

    def derivative(self) -> "CostPolynomial":
        d = self.degree
        if d == 0:
            return CostPolynomial((Fraction(0),))
        coeffs = tuple(self.coefficients[i] * (d - i) for i in range(d))
        return CostPolynomial(coeffs)

    @cached_property
    def marginal(self) -> "CostPolynomial":
        """Cost of one more unit: tau(x) + x * tau'(x), built on first read."""
        d = self.degree
        coeffs = tuple(self.coefficients[i] * (d - i + 1) for i in range(d + 1))
        return CostPolynomial(coeffs)

    def scaled(self, demand_scale: Number, divisor: Number) -> "CostPolynomial":
        """Polynomial x -> tau(x * demand_scale) / divisor."""
        d = self.degree
        coeffs = tuple(self.coefficients[i] * demand_scale ** (d - i) / divisor for i in range(d + 1))
        return CostPolynomial(coeffs)


class Group:
    """A group's paths and its users, as (demand, count) runs in user order.
    Per-user ``demands``, or ``runs``, are folded so that adjacent users share a
    run exactly when their demands have one value, and each run's demand is
    held as the Fraction of that value (see ``_exact``; the error names the
    run's first user): ``demands`` gives them back as Fractions, and every
    per-group figure reads the runs.  Two groups are equal when their ids,
    paths and runs are."""

    def __init__(self, gid: str, paths: tuple, demands: Sequence = (), *, runs=None):
        runs = [(d, sum(count for _, count in same)) for d, same in itertools.groupby(
            ((d, 1) for d in demands) if runs is None else runs, itemgetter(0))]
        firsts = itertools.accumulate((count for _, count in runs), initial=0)
        self.gid = gid
        self.paths = paths  # tuple of tuples of arc ids; identity is positional
        # ((demand, count), ...), every demand > 0 and count >= 1
        self.runs = tuple((_exact(d, f"users[{ui}].demand"), count)
                          for (d, count), ui in zip(runs, firsts))

    def __eq__(self, other):
        return type(other) is Group and (other.gid, other.paths, other.runs) == \
            (self.gid, self.paths, self.runs)

    def __hash__(self):
        return hash((self.gid, self.paths, self.runs))

    @property
    def demands(self) -> tuple:
        return tuple(itertools.chain.from_iterable(itertools.starmap(itertools.repeat, self.runs)))

    @cached_property
    def total_demand(self) -> Fraction:
        """``sum(self.demands)``, summed as integers over the lcm of the runs'
        distinct denominators, times their counts: the same Fraction with no
        Fraction addition per user."""
        common = math.lcm(*{d.denominator for d, _ in self.runs})
        return Fraction(sum(d.numerator * (common // d.denominator) * k for d, k in self.runs),
                        common)

    @property
    def n_users(self) -> int:
        return sum(k for _, k in self.runs)

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
        for i, poly in enumerate(self._arcs.values()):  # arcs[i]: the document's position
            if not self._allow_zero_costs and poly.coefficients[0] <= 0:
                raise GameSchemaError(f"arcs[{i}].coeffs[0]", "leading coefficient must be > 0")
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
            # A run's users share one demand, so its first user stands for them.
            for (d, _), ui in zip(g.runs, itertools.accumulate((k for _, k in g.runs), initial=0)):
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
    def total_demand(self) -> Fraction:
        return sum(g.total_demand for g in self._groups)

    @property
    def d_max(self) -> Fraction:
        return max(max(d for d, _ in g.runs) for g in self._groups)

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

    def __repr__(self):
        return f"PathFlow({dict(self.items())})"


class AtomicProfile(NamedTuple):
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


class MixedProfile(NamedTuple):
    """Per-user probability vector over the user's group paths."""

    probabilities: tuple  # per group: tuple per user: tuple of path probabilities

    def validate(self, game: Game) -> None:
        if len(self.probabilities) != len(game.groups):
            raise ValueError(f"profile has {len(self.probabilities)} groups, "
                             f"the game {len(game.groups)}")
        for gi, (g, rows) in enumerate(zip(game.groups, self.probabilities)):
            if len(rows) != g.n_users:
                raise ValueError(f"groups[{gi}]: {len(rows)} probability rows, "
                                 f"expected {g.n_users}")
            for ui, row in enumerate(rows):
                if len(row) != g.n_paths:
                    raise ValueError(f"groups[{gi}].users[{ui}]: {len(row)} entries, "
                                     f"expected {g.n_paths}")
                if any(isinstance(p, bool) or not isinstance(p, Real) or not 0 <= p < math.inf
                       for p in row):
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


def arc_users(game: Game, profile: MixedProfile, aid: str):
    """(group index, demand, probability its path crosses ``aid``) for each
    user whose group has a path through ``aid``, in group and user order."""
    for gi, g in enumerate(game.groups):
        touching = [pi for pi in range(g.n_paths) if aid in g.paths[pi]]
        if touching:
            for d, row in zip(g.demands, profile.probabilities[gi]):
                yield gi, d, sum(row[pi] for pi in touching)


SAMPLE_CHUNK = 1 << 16  # samples per generator stream


def sample_uniforms(seed: int, start: int, count: int, width: int):
    """Philox words for samples [start, start+count), ``width`` per sample.

    Word w is the uniform (w >> 11) * 2**-53, as numpy's ``random`` reads
    it.  Sample i always reads row i % SAMPLE_CHUNK of the stream of chunk
    i // SAMPLE_CHUNK, keyed by (seed, chunk), making every sample a pure
    function of (seed, i): two calls on adjacent ranges give the rows of one
    call on their union, wherever the split falls.  A range starts in its
    stream in O(1): one Philox counter step is four words, so the generator
    advances by whole steps and draws only the remainder before the range.
    """
    import numpy as np

    def stream(index: int, take: int):
        chunk, offset = divmod(index, SAMPLE_CHUNK)
        bits = np.random.Philox(seed=np.random.SeedSequence(entropy=(int(seed), int(chunk))))
        steps, rest = divmod(offset * width, 4)
        bits.advance(steps).random_raw(rest)
        return bits.random_raw((take, width))

    if count <= SAMPLE_CHUNK - start % SAMPLE_CHUNK:
        return stream(start, count)
    out = np.empty((count, width), np.uint64)
    pos = 0
    while pos < count:
        take = min(count - pos, SAMPLE_CHUNK - (start + pos) % SAMPLE_CHUNK)
        out[pos:pos + take] = stream(start + pos, take)
        pos += take
    return out


def _word_cuts(row) -> list:
    """A probability row's cut points c (running float sums but the last) as
    the least words w with uniform >= c: K << 11, K = max(ceil(c * 2**53), 0),
    exact since c * 2**53 and its ceil are.  K >= 2**53 (a sum that rounded
    up to 1 or past it) is above every uniform: that cut is dropped."""
    ks = [max(math.ceil(c * 2.0 ** 53), 0) for c in itertools.accumulate(map(float, row[:-1]))]
    return [k << 11 for k in ks if k < 2 ** 53]


def draw_atomic_profile(game: Game, profile: MixedProfile, seed: int, index: int) -> AtomicProfile:
    """Draw realization ``index`` of a mixed profile by the float rule; pure in (seed, index)."""
    draws = (sample_uniforms(seed, index, 1, game.n_users)[0] >> 11) * 2.0 ** -53
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
    Rational values may be written as numbers or "num/den" strings.  Only
    the document's shape is checked here; ``CostPolynomial`` and ``Game``
    hold the value rules, and a polynomial's error names its arc's path.
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
        vals = tuple(_as_number(c, f"{where}.coeffs[{j}]") for j, c in enumerate(coeffs))
        try:
            arcs[aid] = CostPolynomial(vals)
        except GameSchemaError as exc:
            raise GameSchemaError(f"{where}.{exc.path}", exc.message) from None

    groups = []
    for i, entry in enumerate(_as_list(doc["groups"], "groups")):
        where = f"groups[{i}]"
        if "id" not in _as_object(entry, where):
            raise GameSchemaError(where, "group needs an 'id'")
        # A missing or null list of paths or users reads as empty, which Game refuses.
        lists = {key: () if entry.get(key) is None else entry[key] for key in ("paths", "users")}
        path_tuples = []
        for pi, path in enumerate(_as_list(lists["paths"], where + ".paths")):
            path = _as_list(path, f"{where}.paths[{pi}]")
            path_tuples.append(tuple(str(a) for a in path))
        runs = []  # [demand, count, document value]: a repeated value is parsed once
        for ui, user in enumerate(_as_list(lists["users"], where + ".users")):
            if not (type(user) is dict or isinstance(user, Mapping)) or "demand" not in user:
                raise GameSchemaError(f"{where}.users[{ui}]", "user needs a 'demand'")
            raw = user["demand"]
            if not (runs and type(raw) is type(runs[-1][2]) and raw == runs[-1][2]):
                runs.append([_as_number(raw, f"{where}.users[{ui}].demand"), 0, raw])
            runs[-1][1] += 1
        groups.append(Group(str(entry["id"]), tuple(path_tuples), runs=[(d, k) for d, k, _ in runs]))

    return Game(arcs, groups)


def dump_game(game: Game) -> dict:
    """Inverse of load_game, for writing derived games to disk."""
    def enc(x: Fraction):
        return str(x) if x.denominator != 1 else x.numerator

    return {
        "arcs": [{"id": aid, "coeffs": [enc(c) for c in poly.coefficients]}
                 for aid, poly in game.arcs.items()],
        "groups": [{"id": g.gid,
                    "paths": [list(p) for p in g.paths],
                    "users": [{"demand": enc(d)} for d in g.demands]}
                   for g in game.groups],
    }
