"""Benchmark for poakit's CLI studies.

    python3 bench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

Runs one workload (``bundled``, ``families`` or ``sampling``; ``all`` runs
each in its own process) in this process, on one thread.  A pass calls
``poakit.cli.main`` once per CLI run of the workload; passes repeat as long
as another one fits in ``--seconds``, and at least twice.  Every run's output is
checked after the pass, outside the timed region.  The last line printed is
one JSON object: ``correct``, ``attempted`` and ``failed`` count CLI runs.
With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` plain and traced passes
alternate and the metrics are the per-layer ones from ``tracing.py``.
See README.md in this directory.
"""

import os

# One thread: the machine has two cores and the workload must not contend
# with itself.  Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("bundled", "families", "sampling")
MIN_PASSES = 2  # the second pass also checks that CSV bytes repeat
SETUP_STARTS = 5  # timed interpreter starts before the first pass


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Passes:
    """Runs passes over a workload's CLI runs and checks every output."""

    def __init__(self, workload, work: Path, cli_main):
        self.workload = workload
        self.work = work
        self.cli_main = cli_main
        self.first_csv = {}  # op name -> {file: bytes} from the first pass
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # runs that exited 0 with a wrong output
        self.reported = set()

    def run(self) -> float:
        """One timed pass; returns its wall time after checking its outputs."""
        ops = self.workload.ops
        codes = []
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for op in ops:
                try:
                    codes.append(self.cli_main(op.argv + ["--out", str(self.work / op.name)]))
                except (Exception, SystemExit) as exc:  # a traceback or argparse exit
                    codes.append(exc)
            elapsed = time.perf_counter() - start
        for op, code in zip(ops, codes):
            self._check(op, code)
        return elapsed

    def _check(self, op, code) -> None:
        out = self.work / op.name
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code!r}"]
        else:
            try:
                problems = op.check(out)
                csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                problems, csvs = [f"unreadable output: {exc!r}"], {}
            if csvs != self.first_csv.setdefault(op.name, csvs):
                problems.append("CSV bytes differ from the first pass with the same seed")
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            if op.name not in self.reported:
                self.reported.add(op.name)
                print(f"bench: {op.name} failed: {'; '.join(problems)}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)


def time_start(command) -> float:
    """Seconds for a fresh interpreter to run ``command`` to its exit."""
    start = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def repeat(step, seconds: float, at_least: int) -> None:
    """Call ``step`` at least ``at_least`` times, then again while another
    call, at the mean length so far, still ends within ``seconds``."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= at_least and elapsed * (calls + 1) / calls > seconds:
            return


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    import poakit
    import poakit.cli

    from tracing import Tracer
    from workloads import WORKLOADS

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    passes = Passes(workload, work, poakit.cli.main)

    if args.trace:
        tracer = Tracer()
        plain, traced = [], []

        def pair():
            plain.append(passes.run())
            tracer.install(poakit)
            try:
                traced.append(passes.run())
            finally:
                tracer.uninstall()

        repeat(pair, args.seconds, 1)
        metrics = tracer.per_pass(len(traced), statistics.fmean(traced))
        metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
        summary = f"{len(plain)} plain + {len(traced)} traced passes"
    else:
        # Set-up: a fresh interpreter imports poakit and loads the documents.
        # The first start fills the bytecode and file caches and is not timed;
        # one more start follows each pass, so the median spans the run.
        probe = [sys.executable, str(BENCH / "setup_probe.py")]
        probe += [f"{kind}={path}" for kind, path in workload.documents]
        time_start(probe)
        starts = [time_start(probe) for _ in range(SETUP_STARTS)]
        times = []

        def step():
            times.append(passes.run())
            starts.append(time_start(probe))

        repeat(step, args.seconds, MIN_PASSES)
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(starts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary = f"{len(times)} passes: " + " ".join(f"{t:.3f}" for t in times) + " s"

    print(f"{args.workload} seed={args.seed}: {summary}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit(name)}")
    print(f"  attempted {passes.attempted}, failed {passes.failed}")
    return {
        "correct": passes.wrong == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "poakit" / "__init__.py").is_file():
        print(f"bench: no poakit sources at {SRC}", file=sys.stderr)
        return 2
    # The workloads are defined at the program's default tolerance and budget.
    for var in ("POAKIT_TOLERANCE", "POAKIT_BUDGET"):
        os.environ.pop(var, None)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
