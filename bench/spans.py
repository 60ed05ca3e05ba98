"""Span tracing for the hfa benchmark.

Run as a script, this executes one `hfa` command with timing wrappers
installed around the module-level names that the hfa modules import from
each other (for example both `hfa.core.solve_dual` and
`hfa.evaluate.solve_dual`), then restores the originals and writes the
recorded spans to a JSON file:

    PYTHONPATH=src python bench/spans.py SPANS.json RUN_ID -- train --source s.csv ...

Each span is `[run id, span id, name, parent span id, start, end, count]`;
times are `time.perf_counter()` seconds. Spans are kept in memory and
written once, when the command returns. `count` carries the work a call
did, measured at the same boundary:

- `svm.solve_dual`: SMO pair updates (`DualSolution.iterations`)
- `core.hfa_train`: `[outer iterations, 1 if the run stopped at t_max]`
- `metric.inner_loop`: 1 if the step moved the metric, else 0

`layer_metrics` turns the spans of one command into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

# (module, attribute, span name): every binding through which one layer
# calls another. A binding missing from the program is skipped and
# reported, so the benchmark keeps running when code moves.
TARGETS = [
    ("hfa.cli", "load_dense_csv", "data.load_dense_csv"),
    ("hfa.cli", "train_multiclass", "evaluate.train_multiclass"),
    ("hfa.cli", "run_experiment", "evaluate.run_experiment"),
    ("hfa.cli", "decision_matrix", "evaluate.decision_matrix"),
    ("hfa.cli", "save_model_set", "model_io.save"),
    ("hfa.cli", "load_model_set", "model_io.load"),
    ("hfa.evaluate", "train_multiclass", "evaluate.train_multiclass"),
    ("hfa.evaluate", "svm_t_baseline", "evaluate.svm_t_baseline"),
    ("hfa.evaluate", "decision_matrix", "evaluate.decision_matrix"),
    ("hfa.evaluate", "sample_protocol", "data.sample_protocol"),
    ("hfa.evaluate", "hfa_train", "core.hfa_train"),
    ("hfa.evaluate", "prepare_kernels", "core.prepare_kernels"),
    ("hfa.evaluate", "solve_dual", "svm.solve_dual"),
    ("hfa.evaluate", "DualProblem", "svm.DualProblem"),
    ("hfa.evaluate", "gram_matrix", "linalg.gram_matrix"),
    ("hfa.evaluate", "cross_gram", "linalg.cross_gram"),
    ("hfa.core", "prepare_kernels", "core.prepare_kernels"),
    ("hfa.core", "_sqrt_factors", "core.sqrt_factors"),
    ("hfa.core", "solve_dual", "svm.solve_dual"),
    ("hfa.core", "DualProblem", "svm.DualProblem"),
    ("hfa.core", "_scalar_inner_loop", "metric.inner_loop"),
    ("hfa.core", "TransformMetric", "metric.TransformMetric"),
    ("hfa.core", "symmetrize", "linalg.symmetrize"),
    ("hfa.core", "gram_matrix", "linalg.gram_matrix"),
    ("hfa.core", "sym_eigen", "linalg.sym_eigen"),
    ("hfa.core", "cross_gram", "linalg.cross_gram"),
    ("hfa.svm", "symmetrize", "linalg.symmetrize"),
    ("hfa.metric", "symmetrize", "linalg.symmetrize"),
    ("hfa.model_io", "TransformMetric", "metric.TransformMetric"),
]


def _pair_updates(fn, args, kwargs, result):
    return int(result.iterations)


def _outer_iterations(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    outer = len(result.objective_trace)
    t_max = getattr(bound.arguments.get("cfg"), "t_max", None)
    return [outer, int(t_max is not None and outer >= t_max)]


def _metric_moved(fn, args, kwargs, result):
    return int(tuple(result) != (1.0, 0.0))


COUNTERS = {
    "svm.solve_dual": _pair_updates,
    "core.hfa_train": _outer_iterations,
    "metric.inner_loop": _metric_moved,
}


class Tracer:
    """In-memory span recorder for one command (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ids, run_id = self.spans, self._open, self.run_id
        counter = COUNTERS.get(name)

        @functools.wraps(fn, updated=())  # fn may be a class: copy no __dict__
        def traced(*args, **kwargs):
            span = [run_id, len(spans), name, open_ids[-1] if open_ids else None, 0.0, 0.0, None]
            spans.append(span)
            open_ids.append(span[1])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                open_ids.pop()
            if counter is not None:
                span[6] = counter(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> tuple[list, list[str]]:
        """Wrap every target; returns (restore list, bindings not found)."""
        restore, missing = [], []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, original))
            restore.append((module, attr, original))
        return restore, missing


def uninstall(restore: list) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def run_traced(spans_path: str, run_id: str, cli_args: list[str]) -> int:
    import hfa.cli

    tracer = Tracer(run_id)
    restore, missing = tracer.install()
    try:
        code = tracer.wrap("cli.main", hfa.cli.main)(cli_args)
    finally:
        uninstall(restore)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run": run_id, "untraced": missing, "spans": tracer.spans}, fh)
    return code


def _self_seconds(spans: list[list], name: str) -> float:
    """Summed duration of `name` spans minus the time their direct children cover."""
    by_id = {s[1]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[2] == name:
            total += s[5] - s[4]
    for s in spans:
        parent = by_id.get(s[3])
        if parent is not None and parent[2] == name:
            total -= s[5] - s[4]
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced command; `<span name>.s` is the time
    spent in that span. A layer the command never entered reads 0."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    solve_ms: list[float] = []
    pairs = outer = hit = moved = 0
    for s in spans:
        name, duration, count = s[2], s[5] - s[4], s[6]
        seconds[name] = seconds.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if count is None:  # the call raised, or the span counts nothing
            continue
        if name == "svm.solve_dual":
            solve_ms.append(1e3 * duration)
            pairs += count
        elif name == "core.hfa_train":
            outer += count[0]
            hit += count[1]
        elif name == "metric.inner_loop":
            moved += count

    solve_s = seconds.get("svm.solve_dual", 0.0)
    inner_calls = calls.get("metric.inner_loop", 0)
    values = {f"{name}.s": seconds.get(name, 0.0) for _, _, name in TARGETS}
    values.update({
        "svm.solve_dual.calls": calls.get("svm.solve_dual", 0),
        "svm.solve_dual.ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "svm.pair_updates": pairs,
        "svm.us_per_pair_update": 1e6 * solve_s / pairs if pairs else 0.0,
        "core.self_s": _self_seconds(spans, "core.hfa_train"),
        "core.outer_iterations": outer,
        "core.hit_t_max": hit,
        "metric.inner_loop.calls": inner_calls,
        "metric.accepted_ratio": moved / inner_calls if inner_calls else 0.0,
        "linalg.symmetrize.calls": calls.get("linalg.symmetrize", 0),
        "cli.self_s": _self_seconds(spans, "cli.main"),
    })
    return values


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: spans.py SPANS.json RUN_ID -- HFA_ARGS...")
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[4:]))
