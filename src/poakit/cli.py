"""Command-line entry point.

Subcommands: solve, sweep, sample, reproduce, decompose.  Every run ends in
``runner``'s one frame, which writes report.json under --out and picks the
exit code: 0 success, 2 assertion failure, 3 input error, 4 solver
non-convergence.  A command line argparse refuses is an input error too;
its report.json is written when --out can still be read from the
arguments.  Options take their full names only.  Tolerance and
enumeration budget may be overridden with the environment variables
POAKIT_TOLERANCE and POAKIT_BUDGET.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

# solvers.py, the largest source, is compiled before the other layers are held,
# which keeps the peak memory of a start without cached bytecode down.
from .solvers import SolverConfig
from .runner import (
    ExperimentConfig,
    RunReport,
    refuse,
    run_decompose,
    run_reproduce,
    run_sample,
    run_solve,
    run_sweep,
)

# Parsed argument names that differ from the ExperimentConfig field they set.
_CONFIG_FIELDS = {"game": "game_path", "family": "family_path", "profile": "profile_path",
                  "n": "n_samples", "out": "out_dir"}
_MODES = ("solve", "sweep", "sample", "reproduce", "decompose")


class _UsageError(Exception):
    """A command line argparse refused."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would exit 2, the assertion-failure code.

    Options are matched by their full names only, so a refused command line's
    --out is always the literal ``--out`` that ``_mode_and_out`` looks for.
    An omitted option sets nothing, so it takes ExperimentConfig's default.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, argument_default=argparse.SUPPRESS,
                         **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _grid(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated integers: {text!r}")
    if not values or values != sorted(set(values)):
        raise argparse.ArgumentTypeError("grid must be strictly increasing")
    return values


@functools.cache  # parse_args leaves a parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poakit",
                     description="Congestion-game equilibria and inefficiency-ratio experiments")
    sub = parser.add_subparsers(dest="mode", required=True)

    solve = sub.add_parser("solve", help="solve one game and report all ratios")
    solve.add_argument("--game", required=True)
    solve.add_argument("--out")
    solve.add_argument("--seed", type=int)

    sweep = sub.add_parser("sweep", help="instantiate a family along a grid")
    sweep.add_argument("--family", required=True)
    sweep.add_argument("--grid", type=_grid, required=True)
    sweep.add_argument("--out")
    sweep.add_argument("--seed", type=int)

    sample = sub.add_parser("sample", help="sample the random cost ratio")
    sample.add_argument("--game", required=True)
    sample.add_argument("--profile",
                        help="JSON mixed profile; default solves the mixed equilibrium")
    sample.add_argument("--n", type=int)
    sample.add_argument("--seed", type=int)
    sample.add_argument("--out")

    rep = sub.add_parser("reproduce", help="check the bundled example games")
    rep.add_argument("--out")

    dec = sub.add_parser("decompose", help="limit prediction vs measured costs")
    dec.add_argument("--family", required=True)
    dec.add_argument("--grid", type=_grid, required=True)
    dec.add_argument("--out")
    dec.add_argument("--seed", type=int)
    return parser


def _environment() -> SolverConfig:
    """Solver settings from POAKIT_TOLERANCE and POAKIT_BUDGET; ValueError if invalid."""
    try:
        return SolverConfig(
            tolerance=float(os.environ.get("POAKIT_TOLERANCE", SolverConfig().tolerance)),
            enumeration_budget=int(os.environ.get("POAKIT_BUDGET",
                                                  SolverConfig().enumeration_budget)))
    except ValueError as exc:
        raise ValueError(f"POAKIT_TOLERANCE / POAKIT_BUDGET: {exc}") from None


def _print_verdicts(report: RunReport) -> None:
    for name, ok, detail in report.verdicts:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f": {detail}"
        print(line)


def _mode_and_out(argv: list) -> tuple:
    """The subcommand and --out of a refused command line, where they can be read."""
    mode = argv[0] if argv and argv[0] in _MODES else None
    out = None
    for arg, value in zip(argv, argv[1:] + [None]):
        if arg == "--out" and value is not None:
            out = value
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
    return mode, out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        usage = exc
        mode, out = _mode_and_out(argv)
    else:
        usage = None
        fields = {_CONFIG_FIELDS.get(k, k): v for k, v in vars(args).items()}
        mode, out = fields.pop("mode"), fields.get("out_dir")
    try:
        if out is not None:  # before any work, so an unusable --out fails at once
            Path(out).mkdir(parents=True, exist_ok=True)
        if usage is not None:
            raise usage
        solver = _environment()
    except OSError as exc:  # no report.json can be written there
        report = refuse(mode, "out", f"cannot create output directory: {exc}", None)
    except _UsageError as exc:
        report = refuse(mode, "usage", str(exc), out)
    except ValueError as exc:
        report = refuse(mode, "environment", str(exc), out)
    else:
        run = {"solve": run_solve, "sweep": run_sweep, "sample": run_sample,
               "reproduce": run_reproduce, "decompose": run_decompose}[mode]
        report = run(ExperimentConfig(**fields, solver=solver))
    _print_verdicts(report)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
