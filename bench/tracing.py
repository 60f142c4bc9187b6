"""Per-layer spans and counts, recorded around poakit's public functions.

The tracer wraps functions from the outside: it rebinds each function's
name in every poakit module that holds it (``runner``, ``poa`` and
``decomposition`` import by name), so nothing under ``src/`` changes.
Each call opens a span; on close, the span's duration minus the time its
child spans covered is added to the function's self-time metric, so the
self times of all layers add up to the traced wall time.  Counts are taken
from the arguments and returned objects.  A call that raises still closes
its span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

# Self-time metrics; with the unattributed remainder they sum to the wall time.
SELF_TIMES = (
    "game.load_s", "game.uniforms_s",
    "solvers.nonatomic_s", "solvers.enumerate_s", "solvers.atomic_so_s",
    "solvers.best_response_s", "solvers.mixed_ne_s", "solvers.expected_cost_s",
    "poa.mixed_sweep_s", "poa.report_s", "poa.sample_s", "poa.exact_distribution_s",
    "bounds.s", "decomposition.prediction_s", "decomposition.worst_atomic_s",
    "runner.self_s",
)
COUNTS = (
    "game.uniforms_drawn",
    "solvers.nonatomic_calls", "solvers.nonatomic_moves", "solvers.nonatomic_repeat_calls",
    "solvers.enumerate_states", "solvers.atomic_so_states", "solvers.states_rescanned",
    "solvers.best_response_calls", "solvers.best_response_moves",
    "solvers.mixed_ne_calls", "solvers.mixed_ne_sweeps", "solvers.expected_cost_calls",
    "poa.samples", "poa.exact_support", "bounds.calls", "runner.csv_bytes",
)
RUN_SPANS = {"run_solve": "runner.solve_s", "run_sweep": "runner.sweep_s",
             "run_sample": "runner.sample_s", "run_decompose": "runner.decompose_s",
             "run_reproduce": "runner.reproduce_s"}
BOUND_FUNCTIONS = (
    "scale_game", "atomic_poa_upper_bound", "nonatomic_poa_upper_bound",
    "atomic_ne_approximation_bound", "expected_flow_approximation",
    "arc_deviation_probability_bound", "weighted_bernoulli_tail_bound",
    "random_poa_probability_bound",
)


def _game(args, kwargs):
    return args[0] if args else kwargs["game"]


class Tracer:
    """Accumulates per-layer metrics while installed; ``specs`` gives the map."""

    def __init__(self):
        self.values = defaultdict(float)
        self._stack = []  # open spans: [start, seconds covered by children]
        self._patches = []  # (owner, attribute, original) to restore
        self._solved = {}  # (id(game), kind) -> game, within one CLI run
        self._enumerated = {}  # id(game) -> game, within one CLI run

    # -- counters, one per wrapped function ---------------------------------
    def _count(self, name):
        def hook(args, kwargs, result):
            self.values[name] += 1
        return hook

    def _uniforms(self, args, kwargs, result):
        self.values["game.uniforms_drawn"] += result.size

    def _nonatomic(self, args, kwargs, result):
        game = _game(args, kwargs)
        key = (id(game), result.kind)
        self.values["solvers.nonatomic_calls"] += 1
        self.values["solvers.nonatomic_moves"] += result.iterations
        if key in self._solved:
            self.values["solvers.nonatomic_repeat_calls"] += 1
        self._solved[key] = game  # held, so the id is not reused within the run

    def _enumerate(self, args, kwargs, result):
        game = _game(args, kwargs)
        self.values["solvers.enumerate_states"] += result.states_scanned
        self._enumerated[id(game)] = game

    def _atomic_so(self, args, kwargs, result):
        self.values["solvers.atomic_so_states"] += result.iterations
        if id(_game(args, kwargs)) in self._enumerated:
            self.values["solvers.states_rescanned"] += result.iterations

    def _best_response(self, args, kwargs, result):
        self.values["solvers.best_response_calls"] += 1
        self.values["solvers.best_response_moves"] += result.iterations

    def _mixed_ne(self, args, kwargs, result):
        self.values["solvers.mixed_ne_calls"] += 1
        self.values["solvers.mixed_ne_sweeps"] += result.iterations

    def _samples(self, args, kwargs, result):
        self.values["poa.samples"] += len(result.samples)

    def _exact_support(self, args, kwargs, result):
        self.values["poa.exact_support"] += len(result)

    def _csv_bytes(self, args, kwargs, result):
        self.values["runner.csv_bytes"] += Path(args[0]).stat().st_size

    def specs(self):
        """(module, function, self-time metric, whole-span metric, count hook)."""
        expected = self._count("solvers.expected_cost_calls")
        bounds = self._count("bounds.calls")
        return [
            ("game", "load_game", "game.load_s", None, None),
            ("decomposition", "load_family", "game.load_s", None, None),
            ("game", "sample_uniforms", "game.uniforms_s", None, self._uniforms),
            ("solvers", "solve_nonatomic_ne", "solvers.nonatomic_s", None, self._nonatomic),
            ("solvers", "solve_nonatomic_so", "solvers.nonatomic_s", None, self._nonatomic),
            ("solvers", "enumerate_atomic_equilibria", "solvers.enumerate_s", None,
             self._enumerate),
            ("solvers", "solve_atomic_so", "solvers.atomic_so_s", None, self._atomic_so),
            ("solvers", "best_response_atomic", "solvers.best_response_s", None,
             self._best_response),
            ("solvers", "solve_mixed_ne_small", "solvers.mixed_ne_s", None, self._mixed_ne),
            ("solvers", "expected_path_costs", "solvers.expected_cost_s", None, expected),
            ("solvers", "expected_total_cost", "solvers.expected_cost_s", None, expected),
            ("solvers", "expected_arc_statistics", "solvers.expected_cost_s", None, expected),
            ("poa", "mixed_poa_small", "poa.mixed_sweep_s", None, None),
            ("poa", "compute_poa_report", "poa.report_s", None, None),
            ("poa", "sample_random_poa", "poa.sample_s", None, self._samples),
            ("poa", "exact_random_cost_distribution", "poa.exact_distribution_s", None,
             self._exact_support),
            *[("bounds", name, "bounds.s", None, bounds) for name in BOUND_FUNCTIONS],
            ("decomposition", "decomposition_prediction", "decomposition.prediction_s",
             None, None),
            ("decomposition", "worst_atomic_cost", "decomposition.worst_atomic_s", None, None),
            *[("runner", name, "runner.self_s", span, None)
              for name, span in RUN_SPANS.items()],
            ("runner", "write_csv", "runner.self_s", None, self._csv_bytes),
        ]

    # -- spans ----------------------------------------------------------------
    def _wrap(self, fn, self_metric, span_metric, hook):
        values, stack = self.values, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span_metric is not None and not stack:  # a new CLI run starts
                self._solved.clear()
                self._enumerated.clear()
            span = [time.perf_counter(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - span[0]
                values[self_metric] += elapsed - span[1]
                if span_metric is not None:
                    values[span_metric] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in ``specs`` wherever a poakit module binds it."""
        from importlib import import_module

        names = ("game", "solvers", "poa", "bounds", "decomposition", "runner", "cli")
        modules = [package] + [import_module(f"{package.__name__}.{n}") for n in names]
        for home, name, self_metric, span_metric, hook in self.specs():
            original = getattr(import_module(f"{package.__name__}.{home}"), name)
            wrapper = self._wrap(original, self_metric, span_metric, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        # BoundInputs.from_game is a static method, reached through the class.
        bound_inputs = import_module(f"{package.__name__}.bounds").BoundInputs
        original = vars(bound_inputs)["from_game"]
        self._patches.append((bound_inputs, "from_game", original))
        bound_inputs.from_game = staticmethod(
            self._wrap(original.__func__, "bounds.s", None, self._count("bounds.calls")))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_pass(self, passes: int, wall_s: float) -> dict:
        """Metrics per traced pass, given the mean traced pass time ``wall_s``."""
        names = (*SELF_TIMES, *COUNTS, *RUN_SPANS.values())
        out = {name: self.values[name] / passes for name in names}
        out["solvers.enumerate_states_per_s"] = (
            out["solvers.enumerate_states"] / out["solvers.enumerate_s"]
            if out["solvers.enumerate_s"] else 0.0)
        sampling_s = out["poa.sample_s"] + out["game.uniforms_s"]
        out["poa.samples_per_s"] = out["poa.samples"] / sampling_s if sampling_s else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(out[name] for name in SELF_TIMES)
        return out
