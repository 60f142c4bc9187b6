"""Command-line entry point.

Subcommands: solve, sweep, sample, reproduce, decompose.  Exit codes:
0 success, 2 assertion failure, 3 input error, 4 solver non-convergence.
Tolerance and enumeration budget may be overridden with the environment
variables POAKIT_TOLERANCE and POAKIT_BUDGET.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .runner import (
    EXIT_INPUT,
    ExperimentConfig,
    RunReport,
    run_decompose,
    run_reproduce,
    run_sample,
    run_solve,
    run_sweep,
    write_report,
)
from .solvers import SolverConfig


def _grid(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated integers: {text!r}")
    if not values or values != sorted(set(values)):
        raise argparse.ArgumentTypeError("grid must be strictly increasing")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poakit",
                                     description="Congestion-game equilibria and "
                                                 "inefficiency-ratio experiments")
    sub = parser.add_subparsers(dest="mode", required=True)

    solve = sub.add_parser("solve", help="solve one game and report all ratios")
    solve.add_argument("--game", required=True)
    solve.add_argument("--out", default=None)
    solve.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="instantiate a family along a grid")
    sweep.add_argument("--family", required=True)
    sweep.add_argument("--grid", type=_grid, required=True)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--seed", type=int, default=0)

    sample = sub.add_parser("sample", help="sample the random cost ratio")
    sample.add_argument("--game", required=True)
    sample.add_argument("--profile", default=None,
                        help="JSON mixed profile; default solves the mixed equilibrium")
    sample.add_argument("--n", type=int, default=100_000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--workers", type=int, default=1)
    sample.add_argument("--out", default=None)

    rep = sub.add_parser("reproduce", help="check the bundled example games")
    rep.add_argument("--out", default=None)

    dec = sub.add_parser("decompose", help="limit prediction vs measured costs")
    dec.add_argument("--family", required=True)
    dec.add_argument("--grid", type=_grid, required=True)
    dec.add_argument("--out", default=None)
    dec.add_argument("--seed", type=int, default=0)
    return parser


def _environment() -> dict:
    """Solver settings from POAKIT_TOLERANCE and POAKIT_BUDGET; ValueError if invalid."""
    try:
        settings = dict(tolerance=float(os.environ.get("POAKIT_TOLERANCE", "1e-9")),
                        enumeration_budget=int(os.environ.get("POAKIT_BUDGET", "10000000")))
        SolverConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"POAKIT_TOLERANCE / POAKIT_BUDGET: {exc}") from None
    return settings


def _print_verdicts(report: RunReport) -> None:
    for name, ok, detail in report.verdicts:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f": {detail}"
        print(line)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = RunReport(config={"mode": args.mode})

    def refuse(name: str, detail: str, out_dir) -> int:
        report.verdicts.append((name, False, detail))
        report.exit_code = EXIT_INPUT
        write_report(report, out_dir)
        _print_verdicts(report)
        return report.exit_code

    if args.out is not None:
        try:  # before any work, so an unusable --out fails at once
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return refuse("out", f"cannot create output directory: {exc}", None)
    try:
        common = _environment()
    except ValueError as exc:
        return refuse("environment", str(exc), args.out)

    if args.mode == "solve":
        config = ExperimentConfig(mode="solve", game_path=args.game, out_dir=args.out,
                                  seed=args.seed, **common)
        report = run_solve(config)
    elif args.mode == "sweep":
        config = ExperimentConfig(mode="sweep", family_path=args.family, grid=args.grid,
                                  out_dir=args.out, seed=args.seed, **common)
        report = run_sweep(config)
    elif args.mode == "sample":
        config = ExperimentConfig(mode="sample", game_path=args.game,
                                  profile_path=args.profile, n_samples=args.n,
                                  seed=args.seed, workers=args.workers,
                                  out_dir=args.out, **common)
        report = run_sample(config)
    elif args.mode == "reproduce":
        config = ExperimentConfig(mode="reproduce", out_dir=args.out, **common)
        report = run_reproduce(config)
    else:
        config = ExperimentConfig(mode="decompose", family_path=args.family,
                                  grid=args.grid, out_dir=args.out, seed=args.seed,
                                  **common)
        report = run_decompose(config)

    _print_verdicts(report)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
