"""Experiment orchestration: solve, sweep, sample, reproduce, decompose.

Every run writes a JSON report plus CSV tables.  CSV content is a pure
function of (config, seed): rows carry the seed and tool version, floats
are serialized with shortest round-trip repr, and wall-times stay in the
JSON report only, so identical runs produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from . import __version__
from .bounds import (
    BoundInputs,
    atomic_ne_approximation_bound,
    atomic_poa_upper_bound,
    expected_flow_approximation,
    nonatomic_poa_upper_bound,
    random_poa_probability_bound,
)
from .game import Game, Group, MixedProfile, load_game
from .poa import (MAX_SAMPLES, PoaReport, atomic_poa, compute_poa_report, nonatomic_poa,
                  sample_random_poa)
from .solvers import (
    BudgetExceededError,
    SolverConfig,
    enumerate_atomic_equilibria,
    solve_mixed_ne_small,
)

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_INPUT = 3
EXIT_NONCONVERGED = 4

DELTA = 1.0 / 3.0  # concentration exponent of the p_delta columns and the sample ceiling


class ExperimentConfig(NamedTuple):
    game_path: Optional[str] = None
    family_path: Optional[str] = None
    profile_path: Optional[str] = None
    grid: Sequence[int] = ()
    n_samples: int = 100_000
    seed: int = 0
    out_dir: Optional[str] = None
    solver: SolverConfig = SolverConfig()  # its rng_seed gives way to ``seed``

    def solver_config(self) -> SolverConfig:
        try:
            return SolverConfig(**{**vars(self.solver), "rng_seed": self.seed})
        except ValueError as exc:  # the seed: the other settings were checked when built
            raise RunFailure("seed", str(exc), EXIT_INPUT) from None


class RunReport:
    def __init__(self, config: dict):
        self.config = config
        self.rows = []
        self.verdicts = []  # (name, passed, detail)
        self.wall_time = 0.0
        self.exit_code = EXIT_OK

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def to_document(self) -> dict:
        return {
            "config": self.config,
            "rows": self.rows,
            "verdicts": [{"name": n, "passed": ok, "detail": d} for n, ok, d in self.verdicts],
            "wall_time": self.wall_time,
            "exit_code": self.exit_code,
            "version": __version__,
        }


def _fmt(value) -> str:
    if value is None:
        return ""
    if type(value) is Fraction:
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
            else str(value.numerator)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue(), encoding="utf-8")


class RunFailure(Exception):
    """A failed step: ends the run with one failed verdict and this exit code.

    ``exit_code`` None stands for an assertion failure (EXIT_ASSERTION).
    """

    def __init__(self, step: str, detail: str, exit_code: Optional[int] = None):
        self.step = step
        self.detail = detail
        self.exit_code = exit_code


def _run(fields: dict, out_dir: Optional[str],
         body: Callable[[RunReport], Optional[int]]) -> RunReport:
    """The one frame every run ends in: exit code, wall time and report.json.

    ``body`` fills the report's rows and verdicts, and may return the exit
    code of its failed verdicts.  A ``RunFailure`` it raises becomes one more
    failed verdict with that failure's code.  An ``ArithmeticError`` means the
    input's costs left the float range: an input error, named after the mode.
    Failed verdicts without a code end in EXIT_ASSERTION.
    """
    t0 = time.perf_counter()
    report = RunReport(config=fields)
    try:
        code = body(report)
    except RunFailure as failure:
        report.verdicts.append((failure.step, False, failure.detail))
        code = failure.exit_code
    except ArithmeticError as exc:
        report.verdicts.append((fields["mode"], False, f"costs outside the float range: {exc}"))
        code = EXIT_INPUT
    report.exit_code = EXIT_OK if report.passed else code or EXIT_ASSERTION
    report.wall_time = time.perf_counter() - t0
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "report.json").write_text(
            json.dumps(report.to_document(), indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8")
    return report


def refuse(mode: str, step: str, detail: str, out_dir: Optional[str]) -> RunReport:
    """The report of a run refused as an input error before any work."""
    def body(report: RunReport):
        raise RunFailure(step, detail, EXIT_INPUT)
    return _run({"mode": mode}, out_dir, body)


def _read(path: str, parse: Callable, step: str = "load"):
    """``parse`` applied to the text of ``path``; an input error if either fails."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise RunFailure(step, str(exc), EXIT_INPUT) from None


def _write_table(config: ExperimentConfig, name: str, header: list, rows: list) -> None:
    """CSV ``name`` under the output directory; every row ends in seed and version."""
    if config.out_dir is not None:
        write_csv(Path(config.out_dir) / name, [*header, "seed", "version"],
                  [[*row, config.seed, __version__] for row in rows])


def _finite(**bounds) -> dict:
    """``bounds``; OverflowError if one is not a finite float."""
    for name, value in bounds.items():
        if not math.isfinite(value):
            raise OverflowError(f"{name} {value} is not a finite float")
    return bounds


def _bound_columns(game: Game) -> dict:
    """Closed-form bound values when the game has one common degree."""
    try:
        inputs = BoundInputs.from_game(game)
    except ValueError:
        return {"atomic_poa_bound": None, "nonatomic_poa_bound": None,
                "ne_residual_bound": None, "p_delta": None}
    eps, _ = atomic_ne_approximation_bound(inputs)
    return _finite(atomic_poa_bound=atomic_poa_upper_bound(inputs),
                   nonatomic_poa_bound=nonatomic_poa_upper_bound(inputs),
                   ne_residual_bound=eps,
                   p_delta=expected_flow_approximation(inputs, DELTA).p_delta)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def run_solve(config: ExperimentConfig) -> RunReport:
    return _run({"mode": "solve", "game": config.game_path, "seed": config.seed,
                 "tolerance": config.solver.tolerance}, config.out_dir,
                lambda report: _solve(config, report))


def _poa_report(game: Game, solver: SolverConfig) -> PoaReport:
    """``compute_poa_report``; a solve that did not converge fails the run with
    EXIT_NONCONVERGED, a failed ``PoaReport.validate`` as an assertion."""
    try:
        return compute_poa_report(game, solver)
    except RuntimeError as exc:
        raise RunFailure("solve", str(exc), EXIT_NONCONVERGED) from None
    except ValueError as exc:  # PoaReport.validate: a ratio below 1 or optima out of order
        raise RunFailure("validate", str(exc)) from None


def _solve(config: ExperimentConfig, report: RunReport) -> None:
    solver = config.solver_config()
    game = _read(config.game_path, load_game)
    poa = _poa_report(game, solver)
    bounds = _bound_columns(game)
    solver_docs = {
        "nonatomic_ne": poa.nonatomic_ne.to_document(game),
        "nonatomic_so": poa.nonatomic_so.to_document(game),
    }
    if poa.mixed_ne is not None:
        solver_docs["mixed_ne"] = poa.mixed_ne.to_document(game)
    row = {
        "game": config.game_path,
        "total_demand": float(game.total_demand),
        "d_max": float(game.d_max),
        "atomic_poa": poa.atomic_poa,
        "atomic_status": poa.atomic_status,
        "nonatomic_poa": poa.nonatomic_poa,
        "mixed_poa": poa.mixed_poa,
        "mixed_status": poa.mixed_status,
        "mixed_certified": poa.mixed_certified,
        "atomic_so_cost": poa.atomic_so_cost,
        "nonatomic_so_cost": poa.nonatomic_so_cost,
        **bounds,
    }
    report.rows.append({k: (float(v) if isinstance(v, Fraction) else v) for k, v in row.items()})
    report.rows.append({"solvers": solver_docs})
    report.verdicts.append(("solved", True, ""))
    header = ["game", "total_demand", "d_max", "atomic_poa", "nonatomic_poa", "mixed_poa",
              "atomic_poa_bound", "nonatomic_poa_bound", "ne_residual_bound", "p_delta"]
    _write_table(config, "solve.csv", header, [[row[k] for k in header]])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def run_sweep(config: ExperimentConfig) -> RunReport:
    return _run({"mode": "sweep", "family": config.family_path, "grid": list(config.grid),
                 "seed": config.seed}, config.out_dir, lambda report: _sweep(config, report))


def _sweep(config: ExperimentConfig, report: RunReport) -> None:
    from .decomposition import load_family, worst_atomic_cost

    solver = config.solver_config()
    family = _read(config.family_path, load_family)
    try:
        family.check_scale(config.grid)  # before any instance is built
        for n in config.grid:
            game = family.instantiate(n)
            worst, is_lb, so_cost = worst_atomic_cost(game, solver)
            poa = None if worst is None or so_cost is None else worst / so_cost
            report.rows.append({"n": n, "T": float(game.total_demand),
                                "d_max": float(game.d_max), "poa_measured": poa,
                                **_bound_columns(game), "atomic_lower_bound_only": is_lb})
    except ValueError as exc:
        raise RunFailure("sweep", str(exc), EXIT_INPUT) from None

    # Decay toward 1 is only promised when the total demand grows while the
    # top user share shrinks; families violating either side are reported
    # without the assertion (they demonstrate non-convergence).
    first, last = report.rows[0], report.rows[-1]
    if (last["d_max"] / last["T"] < first["d_max"] / first["T"] - 1e-15
            and last["T"] > first["T"] + 1e-15):
        bounds_seq = [row["atomic_poa_bound"] for row in report.rows]
        measured = [row["poa_measured"] for row in report.rows]
        ok_bound = all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds_seq, bounds_seq[1:])
                       if b1 is not None and b2 is not None)
        defined = [m for m in measured if m is not None]
        ok_measured = len(defined) >= 2 and defined[-1] <= defined[0] + 1e-12
        report.verdicts.append(("bound-decay", ok_bound,
                                f"bounds along grid: {bounds_seq}"))
        report.verdicts.append(("poa-decay", ok_measured,
                                f"measured along grid: {measured}"))
    else:
        report.verdicts.append(("decay", True,
                                "d_max/T not decaying along grid; decay not asserted"))
    header = ["n", "T", "d_max", "poa_measured", "atomic_poa_bound", "nonatomic_poa_bound",
              "ne_residual_bound", "p_delta", "atomic_lower_bound_only"]
    _write_table(config, "sweep.csv", header, [[row[k] for k in header] for row in report.rows])


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def run_sample(config: ExperimentConfig) -> RunReport:
    return _run({"mode": "sample", "game": config.game_path, "profile": config.profile_path,
                 "seed": config.seed, "n_samples": config.n_samples}, config.out_dir,
                lambda report: _sample(config, report))


def _mixed_profile(text: str, game: Game) -> MixedProfile:
    """A profile document: per group, per user, the path probabilities.

    Its shape, a list of lists of lists, is checked here; ``MixedProfile``
    checks the counts and the probabilities against the game.
    """
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise ValueError("the profile is not a list of groups")
    for gi, rows in enumerate(doc):
        if not isinstance(rows, list):
            raise ValueError(f"groups[{gi}] is not a list of users")
        for ui, row in enumerate(rows):
            if not isinstance(row, list):
                raise ValueError(f"groups[{gi}].users[{ui}] is not a list of probabilities")
    profile = MixedProfile(tuple(tuple(tuple(row) for row in rows) for rows in doc))
    profile.validate(game)
    return profile


def _sample(config: ExperimentConfig, report: RunReport) -> None:
    solver = config.solver_config()
    if config.n_samples < 1:
        raise RunFailure("plan", "n_samples must be >= 1", EXIT_INPUT)
    if config.n_samples > MAX_SAMPLES:
        raise RunFailure("sample", f"--n {config.n_samples} is past 2**63 - 1, the most "
                         "samples an int64 count holds", EXIT_INPUT)
    game = _read(config.game_path, load_game)

    if config.profile_path:
        profile = _read(config.profile_path, lambda text: _mixed_profile(text, game), "profile")
    else:
        try:
            result = solve_mixed_ne_small(game, solver)
        except ValueError as exc:  # outside the mixed solver's scope
            raise RunFailure("profile", str(exc), EXIT_INPUT) from None
        if not result.converged:
            raise RunFailure("mixed-ne", result.note, EXIT_NONCONVERGED)
        profile = result.flow

    try:
        dist = sample_random_poa(game, profile, config.n_samples, solver)
    except BudgetExceededError as exc:
        raise RunFailure("sample", str(exc), EXIT_INPUT) from None
    except MemoryError:  # the table of distinct sampled values, at most one per sample
        raise RunFailure("sample", f"--n {config.n_samples}: the distinct sampled values "
                         "do not fit in memory", EXIT_INPUT) from None

    try:
        rho_nat, _, nonat_so = nonatomic_poa(game, solver)
    except RuntimeError as exc:
        raise RunFailure("nonatomic", str(exc), EXIT_NONCONVERGED) from None
    bound = random_poa_probability_bound(game, DELTA, rho_nat, float(nonat_so.cost))
    _finite(threshold=bound.threshold)
    n = config.n_samples
    exceed = int(dist.counts[dist.values > bound.threshold].sum()) / n
    slack = 3.0 * math.sqrt(max(bound.p_delta * (1 - bound.p_delta), 1e-12) / n)
    ok = exceed <= bound.p_delta + slack
    report.rows.append({
        "empirical_mean": dist.empirical_mean,
        "exact_mean": dist.exact_mean,
        "exact_status": dist.exact_status,
        "threshold": bound.threshold,
        "p_delta": bound.p_delta,
        "exceedance_frequency": exceed,
    })
    report.verdicts.append(("random-poa-probability", ok,
                            f"frequency {exceed} vs ceiling {bound.p_delta}"))

    _write_table(config, "distribution.csv", ["value", "probability_or_frequency", "source"],
                 dist.table())


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def run_decompose(config: ExperimentConfig) -> RunReport:
    return _run({"mode": "decompose", "family": config.family_path,
                 "grid": list(config.grid), "seed": config.seed}, config.out_dir,
                lambda report: _decompose(config, report))


def _decompose(config: ExperimentConfig, report: RunReport) -> None:
    from .decomposition import decomposition_prediction, load_family

    solver = config.solver_config()
    family = _read(config.family_path, load_family)
    try:
        result = decomposition_prediction(family, list(config.grid), solver)
    except RuntimeError as exc:
        raise RunFailure("decompose", str(exc), EXIT_NONCONVERGED) from None
    except ValueError as exc:
        raise RunFailure("decompose", str(exc), EXIT_INPUT) from None

    for row in result.rows:
        report.rows.append({
            "n": row.n, "T": row.total_demand, "predicted": row.predicted,
            "measured_atomic": row.measured_atomic,
            "measured_nonatomic": row.measured_nonatomic,
            "atomic_ratio": row.atomic_ratio, "nonatomic_ratio": row.nonatomic_ratio,
        })
    drift = [abs(r.nonatomic_ratio - 1.0) for r in result.rows]
    ok = len(drift) < 2 or drift[-1] <= drift[0] + 1e-12
    report.verdicts.append(("nonatomic-ratio-drift", ok, f"|ratio-1| along grid: {drift}"))
    header = ["n", "T", "class_costs", "predicted", "measured_atomic", "measured_nonatomic",
              "atomic_ratio", "nonatomic_ratio", "atomic_lower_bound_only"]
    _write_table(config, "decompose.csv", header, [
        [row.n, row.total_demand, ";".join(repr(c) for c in row.class_costs), row.predicted,
         row.measured_atomic, row.measured_nonatomic, row.atomic_ratio, row.nonatomic_ratio,
         row.atomic_is_lower_bound] for row in result.rows])


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def asset_path(name: str) -> Path:
    return Path(__file__).parent / "assets" / name


def load_asset(name: str) -> Game:
    path = asset_path(name)
    if not path.exists():
        raise FileNotFoundError(f"asset not found: {path}")
    return load_game(path.read_text(encoding="utf-8"))


def _with_uniform_users(game: Game, per_group_users: int, demand) -> Game:
    groups = [Group(g.gid, g.paths, runs=[(demand, per_group_users)]) for g in game.groups]
    return Game(game.arcs, groups)


def _require(ok: bool, message: str) -> None:
    """The one check of ``reproduce``: a failed check with ``message`` unless ``ok``."""
    if not ok:
        raise RunFailure("reproduce", message)


def reproduce_checks(config: ExperimentConfig) -> list:
    """The bundled example games, each checked against its frozen values: one
    ``(name, passed, detail, exit_code)`` per game, where a missing asset or
    a scan past the enumeration budget is an input error (EXIT_INPUT)."""
    solver = config.solver_config()
    checks = []

    def run(name: str, fn: Callable[[], str]):
        try:
            checks.append((name, True, fn(), None))
        except RunFailure as failure:
            checks.append((name, False, failure.detail, failure.exit_code))
        except (FileNotFoundError, BudgetExceededError) as exc:
            checks.append((name, False, str(exc), EXIT_INPUT))

    def quadratic_constant():
        game = load_asset("parallel_quadratic_constant.json")
        poa = _poa_report(game, solver)
        if poa.equilibria is None:
            raise RunFailure("enumerate", poa.atomic_status, EXIT_INPUT)
        f_u = float(poa.nonatomic_ne.flow.values()[0])
        _require(abs(f_u - math.sqrt(2)) <= 1e-7,
                 f"expected splittable equilibrium flow sqrt(2) on the quadratic arc, got {f_u}")
        rho_nat = poa.nonatomic_poa
        want = 18.0 / (18.0 - math.sqrt(6.0))
        _require(abs(rho_nat - want) <= 1e-6, f"expected ratio {want}, got {rho_nat}")
        eq = poa.equilibria
        _require(len(eq.equilibria) == 1,
                 f"expected a unique pure equilibrium, got {len(eq.equilibria)}")
        flow = eq.worst.flow.induced_flow(game)
        _require(flow.values() == (Fraction(0), Fraction(4)),
                 f"expected pure equilibrium flow (0, 4), got {flow.values()}")
        _require(poa.atomic_poa == 1, "expected atomic ratio exactly 1")
        mixed = poa.mixed_ne
        x = float(mixed.flow.probabilities[0][0][0])
        want_x = (math.sqrt(2.0) - 1.0) / 2.0
        _require(abs(x - want_x) <= 1e-8, f"expected symmetric probability {want_x}, got {x}")
        _require(mixed.residual <= 1e-9, f"indifference residual {mixed.residual} above 1e-9")
        value = poa.mixed_poa
        want_mixed = 5.0 - 2.5 * math.sqrt(2.0)
        _require(poa.mixed_certified, "expected a certified sweep of the equilibrium set")
        _require(abs(value - want_mixed) <= 1e-8, f"expected mixed ratio {want_mixed}, got {value}")
        _require(value >= 1.25, f"mixed ratio {value} below 5/4")
        return f"rho_nat={rho_nat:.6f}, mixed ratio={value:.6f}"

    def affine_offset():
        base = load_asset("parallel_affine_offset.json")
        details = []
        for n in (1, 2, 5):
            game = base if n == 1 else _with_uniform_users(base, 4 * n, Fraction(1, 4 * n))
            value = atomic_poa(game, solver)[0]
            _require(value == Fraction(8, 7),
                     f"expected atomic ratio exactly 8/7 at n={n}, got {value}")
            details.append(f"n={n}: {value}")
        return "; ".join(details)

    def linear_double():
        base = load_asset("parallel_linear_double.json")
        details = []
        for n in (1, 2):
            game = _with_uniform_users(base, 2, Fraction(n))
            eq = enumerate_atomic_equilibria(game, solver)
            so = eq.optimum
            _require(eq.worst.cost == 4 * n * n,
                     f"expected worst equilibrium cost {4 * n * n}, got {eq.worst.cost}")
            _require(so.cost == 3 * n * n, f"expected optimum cost {3 * n * n}, got {so.cost}")
            value = atomic_poa(game, solver, eq)[0]
            _require(value == Fraction(4, 3), f"expected atomic ratio exactly 4/3, got {value}")
            details.append(f"n={n}: {value}")
        return "; ".join(details)

    def two_commodity():
        base = load_asset("two_commodity_mixed_degree.json")
        values = []
        for n in (100, 1000, 10000):
            game = _with_uniform_users(base, 2, math.sqrt(n))
            values.append(float(atomic_poa(game, solver)[0]))
        target = 16.0 / 9.0
        _require(values[0] < values[1] < values[2] <= target + 1e-9,
                 f"expected the ratio to increase toward 16/9, got {values}")
        _require(abs(values[-1] - target) <= 0.002,
                 f"expected atomic ratio within 0.002 of 16/9 at n=10^4, got {values[-1]}")
        return f"ratios {['%.6f' % v for v in values]} -> 16/9"

    run("parallel_quadratic_constant", quadratic_constant)
    run("parallel_affine_offset", affine_offset)
    run("parallel_linear_double", linear_double)
    run("two_commodity_mixed_degree", two_commodity)
    return checks


def run_reproduce(config: ExperimentConfig) -> RunReport:
    return _run({"mode": "reproduce", "seed": config.seed}, config.out_dir,
                lambda report: _reproduce(config, report))


def _reproduce(config: ExperimentConfig, report: RunReport) -> Optional[int]:
    checks = reproduce_checks(config)
    report.verdicts.extend(check[:3] for check in checks)
    codes = {check[3] for check in checks}
    # An input error first, then a solve that did not converge, else EXIT_ASSERTION.
    return next((code for code in (EXIT_INPUT, EXIT_NONCONVERGED) if code in codes), None)
