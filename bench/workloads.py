"""The benchmark's three workloads: their inputs, CLI runs and output checks.

A workload is built from a seed.  It writes the documents the program
reads, lists the CLI runs of one pass, and gives each run a check that
reads the run's ``report.json`` and CSV files and returns a list of
problems (empty when the output is right).  References come from
``reference.py``, from the paper's closed forms, or from properties the
method must have; none is a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

ASSETS = Path(__file__).resolve().parent.parent / "src" / "poakit" / "assets"
BUNDLED = ("parallel_quadratic_constant", "parallel_affine_offset",
           "parallel_linear_double", "two_commodity_mixed_degree")

SWEEP_GRID = (10, 80, 160)  # three-path unit-user family
DECOMPOSE_TOP = 10_000  # two-commodity family, largest grid point
FALLBACK_PATHS = 8  # 40 unit users on 8 links: C(47, 7) > 10^7 states
FALLBACK_USERS = 40
LINKS = 300  # parallel links of the large non-atomic game
ASSET_SAMPLES = 2_000_000
GENERATED_SAMPLES = 1_000_000
GENERATED_GROUPS = 3
GENERATED_GROUP_USERS = 7  # 21 users: above the exact-distribution cap of 20
MEAN_STANDARD_ERRORS = 5.0


@dataclass
class Op:
    """One CLI run: its name (also its output directory), argv and check."""

    name: str
    argv: list
    check: Callable[[Path], list]


@dataclass
class Workload:
    ops: list
    documents: list  # (kind, path) pairs, kind "game" or "family"


def _write(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def _asset(name: str) -> dict:
    return json.loads((ASSETS / f"{name}.json").read_text(encoding="utf-8"))


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _csv(out: Path, name: str) -> list:
    with open(out / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _failed_verdicts(report: dict) -> list:
    return [f"verdict {v['name']} failed: {v['detail']}"
            for v in report["verdicts"] if not v["passed"]]


def _close(name: str, got, want, rel: float) -> list:
    if got is None or abs(float(got) - float(want)) > rel * max(1.0, abs(float(want))):
        return [f"{name}: got {got}, want {float(want)!r}"]
    return []


def _exact(name: str, text: str, want: Fraction) -> list:
    return [] if Fraction(text) == want else [f"{name}: got {text}, want {want}"]


def _parallel_family(coeffs, law) -> dict:
    arcs = [{"id": f"e{i}", "coeffs": c} for i, c in enumerate(coeffs)]
    return {"arcs": arcs,
            "groups": [{"id": "od", "paths": [[a["id"]] for a in arcs],
                        "users": [{"demand": 1}]}],
            "demand_laws": {"od": law}}


def _at(family: dict, n: int) -> dict:
    """Family instance at grid point n, for the laws used here (c * n^gamma
    demand of unit users, gamma in {1/2, 1}, n a perfect square when 1/2)."""
    groups = []
    for g in family["groups"]:
        law = family["demand_laws"][g["id"]]
        demand = law["c"] * (math.isqrt(n) if law["gamma"] == 0.5 else n ** law["gamma"])
        groups.append({**g, "users": [{"demand": 1}] * demand})
    return {"arcs": family["arcs"], "groups": groups}


# ---------------------------------------------------------------------------
# bundled: the four assets and reproduce
# ---------------------------------------------------------------------------

def _solve_row(out: Path):
    report = _report(out)
    return report, report["rows"][0], report["rows"][1]["solvers"], _csv(out, "solve.csv")[0]


def _check_quadratic_constant(out: Path) -> list:
    report, row, _, line = _solve_row(out)
    problems = _failed_verdicts(report) + _exact("atomic ratio", line["atomic_poa"], Fraction(1))
    problems += _close("non-atomic ratio", row["nonatomic_poa"],
                       ref.QUADRATIC_CONSTANT_NONATOMIC, 1e-6)
    problems += _close("mixed ratio", row["mixed_poa"], ref.QUADRATIC_CONSTANT_MIXED, 1e-8)
    return problems


def _check_affine_offset(out: Path) -> list:
    report, row, solvers, line = _solve_row(out)
    problems = _failed_verdicts(report)
    problems += _exact("atomic ratio", line["atomic_poa"], ref.AFFINE_OFFSET_RATIO)
    problems += _close("non-atomic ratio", row["nonatomic_poa"], ref.AFFINE_OFFSET_RATIO, 1e-6)
    ne, so = solvers["nonatomic_ne"]["flow"], solvers["nonatomic_so"]["flow"]
    problems += _close("equilibrium flow on x", ne["od/0"], 1.0, 1e-9)
    problems += _close("equilibrium flow on x+1", ne["od/1"], 0.0, 1e-9)
    problems += _close("optimum flow on x", so["od/0"], 0.75, 1e-7)
    problems += _close("optimum flow on x+1", so["od/1"], 0.25, 1e-7)
    return problems


def _check_linear_double(out: Path) -> list:
    report, row, _, line = _solve_row(out)
    problems = _failed_verdicts(report)
    problems += _exact("atomic ratio", line["atomic_poa"], ref.LINEAR_DOUBLE_ATOMIC)
    problems += _close("non-atomic ratio", row["nonatomic_poa"], 1.0, 1e-6)
    problems += _close("mixed ratio", row["mixed_poa"], ref.LINEAR_DOUBLE_ATOMIC, 1e-8)
    return problems


def _check_two_commodity(ratio: Fraction):
    def check(out: Path) -> list:
        report, _, _, line = _solve_row(out)
        return _failed_verdicts(report) + _exact("atomic ratio", line["atomic_poa"], ratio)
    return check


def _check_reproduce(out: Path) -> list:
    report = _report(out)
    names = [v["name"] for v in report["verdicts"]]
    problems = _failed_verdicts(report)
    if names != list(BUNDLED):
        problems.append(f"reproduce verdicts {names}, want {list(BUNDLED)}")
    return problems


def bundled(seed: int, work: Path) -> Workload:
    """``solve`` on each bundled asset, then ``reproduce``.

    The assets are the paper's examples, so the inputs do not depend on
    the seed; the seed only sets the program's ``--seed`` (a CSV column).
    """
    worst, best = ref.scan_game(_asset("two_commodity_mixed_degree"))
    checks = {
        "parallel_quadratic_constant": _check_quadratic_constant,
        "parallel_affine_offset": _check_affine_offset,
        "parallel_linear_double": _check_linear_double,
        "two_commodity_mixed_degree": _check_two_commodity(Fraction(worst, best)),
    }
    ops = [Op(f"solve-{name}", ["solve", "--game", str(ASSETS / f"{name}.json"),
                                "--seed", str(seed)], checks[name])
           for name in BUNDLED]
    ops.append(Op("reproduce", ["reproduce"], _check_reproduce))
    return Workload(ops, [("game", ASSETS / f"{name}.json") for name in BUNDLED])


# ---------------------------------------------------------------------------
# families: sweep, two decompositions and a many-link solve
# ---------------------------------------------------------------------------

def _three_path_family(rng: random.Random):
    """Three affine links with seeded coefficients, one unit user per unit of n.

    The program asserts that the measured ratio does not rise from the first
    grid point to the last.  That holds for most coefficient draws but not
    all (some have ratio exactly 1 at n = 10), so coefficients are drawn
    again until the reference scan confirms it; every draw follows from the
    seed.
    """
    while True:
        coeffs = [[rng.randint(1, 3), rng.randint(0, 4)] for _ in range(3)]
        scans = [ref.scan_group(coeffs, [1] * n) for n in SWEEP_GRID]
        ratios = [float(w) / float(b) for w, b in scans]
        if ratios[-1] <= ratios[0]:
            return _parallel_family(coeffs, {"c": 1, "gamma": 1, "user_demand": 1}), ratios


def _check_sweep(ratios):
    def check(out: Path) -> list:
        report = _report(out)
        problems = _failed_verdicts(report)
        names = {v["name"] for v in report["verdicts"]}
        if not {"bound-decay", "poa-decay"} <= names:
            problems.append(f"decay verdicts missing: {sorted(names)}")
        lines = _csv(out, "sweep.csv")
        if [int(r["n"]) for r in lines] != list(SWEEP_GRID):
            return problems + ["sweep rows do not match the grid"]
        for r, want in zip(lines, ratios):
            problems += _close(f"poa_measured at n={r['n']}", float(r["poa_measured"]),
                               want, 1e-12)
            if float(r["poa_measured"]) < 1.0:
                problems.append(f"ratio below 1 at n={r['n']}")
            if r["atomic_lower_bound_only"] != "False":
                problems.append(f"enumerated row n={r['n']} flagged as lower bound")
        return problems
    return check


def _check_decompose(grid, measured, lower_bound_only: bool, floor=None):
    def check(out: Path) -> list:
        report = _report(out)
        problems = _failed_verdicts(report)
        lines = _csv(out, "decompose.csv")
        if [int(r["n"]) for r in lines] != list(grid):
            return problems + ["decompose rows do not match the grid"]
        for r, want in zip(lines, measured):
            got = float(r["measured_atomic"])
            if want is not None:
                problems += _close(f"measured_atomic at n={r['n']}", got, want, 1e-12)
            if floor is not None and got < floor:
                problems.append(f"measured_atomic {got} below the optimum {floor}")
            if r["atomic_lower_bound_only"] != str(lower_bound_only):
                problems.append(f"n={r['n']}: atomic_lower_bound_only is "
                                f"{r['atomic_lower_bound_only']}, want {lower_bound_only}")
        return problems
    return check


def _check_links(slopes, offsets, demand):
    ne_cost, so_cost = ref.affine_nonatomic(slopes, offsets, demand)

    def check(out: Path) -> list:
        report, row, _, _ = _solve_row(out)
        problems = _failed_verdicts(report)
        problems += _close("non-atomic ratio", row["nonatomic_poa"], ne_cost / so_cost, 1e-6)
        problems += _close("non-atomic optimum cost", row["nonatomic_so_cost"], so_cost, 1e-6)
        if row["nonatomic_poa"] < 1.0 - 1e-9:
            problems.append(f"non-atomic ratio {row['nonatomic_poa']} below 1")
        if row["atomic_poa"] is not None or "budget exceeded" not in row["atomic_status"]:
            problems.append(f"expected the best-response fallback, got {row['atomic_status']!r}")
        return problems
    return check


def families(seed: int, work: Path) -> Workload:
    rng = random.Random(f"families-{seed}")
    inputs = work / "inputs"

    three_path, sweep_ratios = _three_path_family(rng)
    sweep_doc = _write(inputs / "three_path.json", three_path)

    # (x, x) / (x^3, 8x^3 + 1): od1 grows like 2n, od2 like 2 sqrt(n).  Grid
    # points are perfect squares so every user demand is exactly 1.
    two_commodity = {
        "arcs": [{"id": "a1", "coeffs": [1, 0]}, {"id": "a2", "coeffs": [1, 0]},
                 {"id": "b1", "coeffs": [1, 0, 0, 0]}, {"id": "b2", "coeffs": [8, 0, 0, 1]}],
        "groups": [{"id": "od1", "paths": [["a1"], ["a2"]], "users": [{"demand": 1}]},
                   {"id": "od2", "paths": [["b1"], ["b2"]], "users": [{"demand": 1}]}],
        "demand_laws": {"od1": {"c": 2, "gamma": 1, "user_demand": 1},
                        "od2": {"c": 2, "gamma": 0.5, "user_demand": 1}},
    }
    two_grid = (rng.randint(8, 12) ** 2, rng.randint(30, 60) ** 2, DECOMPOSE_TOP)
    two_measured = [float(ref.scan_game(_at(two_commodity, n))[0]) for n in two_grid]
    two_doc = _write(inputs / "two_commodity.json", two_commodity)

    fallback_coeffs = [[rng.randint(1, 3), rng.randint(0, 3)] for _ in range(FALLBACK_PATHS)]
    fallback = _parallel_family(fallback_coeffs, {"c": 1, "gamma": 1, "user_demand": 1})
    fallback_doc = _write(inputs / "fallback.json", fallback)
    fallback_floor = float(ref.unit_user_optimum(fallback_coeffs, FALLBACK_USERS))

    slopes = [rng.randint(1, 5) for _ in range(LINKS)]
    offsets = [rng.randint(0, 9) for _ in range(LINKS)]
    demands = rng.sample(range(1, 7), 4)  # distinct, so 300^4 states: past the budget
    links_doc = _write(inputs / "links.json", {
        "arcs": [{"id": f"l{i}", "coeffs": [a, b]}
                 for i, (a, b) in enumerate(zip(slopes, offsets))],
        "groups": [{"id": "od", "paths": [[f"l{i}"] for i in range(LINKS)],
                    "users": [{"demand": d} for d in demands]}],
    })

    grid = ",".join(str(n) for n in SWEEP_GRID)
    ops = [
        Op("sweep-three-path", ["sweep", "--family", str(sweep_doc), "--grid", grid,
                                "--seed", str(seed)], _check_sweep(sweep_ratios)),
        Op("decompose-two-commodity",
           ["decompose", "--family", str(two_doc), "--grid", ",".join(map(str, two_grid)),
            "--seed", str(seed)],
           _check_decompose(two_grid, two_measured, False)),
        Op("decompose-fallback",
           ["decompose", "--family", str(fallback_doc), "--grid", str(FALLBACK_USERS),
            "--seed", str(seed)],
           _check_decompose((FALLBACK_USERS,), [None], True, fallback_floor)),
        Op("solve-links", ["solve", "--game", str(links_doc), "--seed", str(seed)],
           _check_links(slopes, offsets, sum(demands))),
    ]
    documents = [("family", sweep_doc), ("family", two_doc), ("family", fallback_doc),
                 ("game", links_doc)]
    return Workload(ops, documents)


# ---------------------------------------------------------------------------
# sampling: the random ratio with n in the millions
# ---------------------------------------------------------------------------

def _distribution(out: Path):
    exact, sampled = [], []
    for r in _csv(out, "distribution.csv"):
        if r["source"] == "exact":
            exact.append(float(r["probability_or_frequency"]))
        else:
            sampled.append((float(r["value"]), int(r["probability_or_frequency"])))
    return exact, sampled


def _check_sample(n: int, exact_mean: float, exact_rows: bool):
    def check(out: Path) -> list:
        report = _report(out)
        row = report["rows"][0]
        problems = _failed_verdicts(report)
        exact, sampled = _distribution(out)
        count = sum(c for _, c in sampled)
        if count != n:
            return problems + [f"{count} samples counted, want {n}"]
        if exact_rows:
            if abs(sum(exact) - 1.0) > 1e-9:
                problems.append(f"exact probabilities sum to {sum(exact)!r}")
            problems += _close("exact mean", row["exact_mean"], exact_mean, 1e-9)
        elif exact or row["exact_mean"] is not None:
            problems.append("exact distribution present above the user cap")
        mean = sum(v * c for v, c in sampled) / count
        var = sum(c * (v - mean) ** 2 for v, c in sampled) / (count - 1)
        problems += _close("CSV mean vs report", mean, row["empirical_mean"], 1e-9)
        se = math.sqrt(var / count)
        if abs(row["empirical_mean"] - exact_mean) > MEAN_STANDARD_ERRORS * se:
            problems.append(f"empirical mean {row['empirical_mean']!r} is more than "
                            f"{MEAN_STANDARD_ERRORS} standard errors ({se:.3g}) "
                            f"from the exact mean {exact_mean!r}")
        return problems
    return check


def _generated_game(rng: random.Random):
    """Disjoint two-link groups of seven users each, with a seeded mixed profile."""
    arcs, groups, profile = [], [], []
    for gi in range(GENERATED_GROUPS):
        a, b = f"g{gi}a", f"g{gi}b"
        arcs += [{"id": a, "coeffs": [rng.randint(1, 3), 0, rng.randint(0, 3)]},
                 {"id": b, "coeffs": [rng.randint(1, 3), rng.randint(0, 5)]}]
        groups.append({"id": f"g{gi}", "paths": [[a], [b]],
                       "users": [{"demand": rng.randint(1, 3)}
                                 for _ in range(GENERATED_GROUP_USERS)]})
        ps = [round(rng.uniform(0.15, 0.85), 6) for _ in range(GENERATED_GROUP_USERS)]
        profile.append([[p, 1.0 - p] for p in ps])
    return {"arcs": arcs, "groups": groups}, profile


def _exact_mean_ratio(doc: dict, profile) -> float:
    """Exact mean realized cost over the atomic optimum, from the references.

    ``profile`` has the shape of a ``--profile`` document: per group, per
    user, one probability per path.  Every path here is a single arc.
    """
    arcs = {a["id"]: [Fraction(c) for c in a["coeffs"]] for a in doc["arcs"]}
    users = [(float(Fraction(u["demand"])),
              {path[0]: p for path, p in zip(g["paths"], probs)})
             for g, rows in zip(doc["groups"], profile)
             for u, probs in zip(g["users"], rows)]
    _, optimum = ref.scan_game(doc)
    return ref.expected_total_cost(arcs, users) / float(optimum)


def sampling(seed: int, work: Path) -> Workload:
    rng = random.Random(f"sampling-{seed}")
    asset = ASSETS / "two_commodity_mixed_degree.json"
    asset_mean = _exact_mean_ratio(_asset("two_commodity_mixed_degree"),
                                   ref.two_commodity_mixed_profile())

    game, profile = _generated_game(rng)
    game_doc = _write(work / "inputs" / "generated.json", game)
    profile_doc = _write(work / "inputs" / "profile.json", profile)
    generated_mean = _exact_mean_ratio(game, profile)

    program_seed = str(seed)
    ops = [
        Op("sample-two-commodity",
           ["sample", "--game", str(asset), "--n", str(ASSET_SAMPLES), "--seed", program_seed],
           _check_sample(ASSET_SAMPLES, asset_mean, True)),
        Op("sample-generated",
           ["sample", "--game", str(game_doc), "--profile", str(profile_doc),
            "--n", str(GENERATED_SAMPLES), "--seed", program_seed],
           _check_sample(GENERATED_SAMPLES, generated_mean, False)),
    ]
    return Workload(ops, [("game", asset), ("game", game_doc)])


WORKLOADS = {"bundled": bundled, "families": families, "sampling": sampling}
