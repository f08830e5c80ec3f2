"""Span tracing of the mixbudget library, patched on from outside.

The traced run wraps library functions at the module attributes their
callers look them up through (``strategies.grad_batch``,
``model._forward_cached``, ``cli.run_strategy``, ...). Each wrapper
records one span (name, start, end, parent, pass) and, where the layer
has one, a work count (rows, bytes, calls). Spans stay in memory until
the run ends. Nothing in the library is edited, and untraced passes run
with every original function restored.

A wrapped function that no longer exists (a later refactor may delete or
rename it) is skipped, and the metrics that needed it are reported as
absent rather than failing the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

# Per-layer metrics the traced run reports, with their units. A ".s"
# metric is the inclusive time of its spans, except the three listed in
# SELF_TIME, which are self time (span time minus the time of its child
# spans).
LAYER_METRICS = {
    "corpus.generate.s": "s",
    "corpus.generate.rows": "rows",
    "corpus.save.s": "s",
    "corpus.save.bytes": "bytes",
    "corpus.load.s": "s",
    "corpus.load.bytes": "bytes",
    "corpus.allocate_random.s": "s",
    "corpus.allocate_entropy.s": "s",
    "model.grad.s": "s",
    "model.grad.calls": "calls",
    "model.grad.rows": "rows",
    "model.forward.s": "s",
    "model.backward.s": "s",
    "model.adam.s": "s",
    "model.adam.calls": "calls",
    "model.predict.s": "s",
    "model.predict.rows": "rows",
    "strategies.steps": "steps",
    "strategies.make_targets.s": "s",
    "strategies.pseudo_label.s": "s",
    "strategies.pseudo_label.rows": "rows",
    "strategies.pairing.s": "s",
    "strategies.loop.s": "s",
    "calibrate.tune.s": "s",
    "calibrate.tune.entropy_evals": "evals",
    "metrics.evaluate.s": "s",
    "metrics.evaluate.rows": "rows",
    "metrics.write_report.s": "s",
    "metrics.write_report.bytes": "bytes",
    "cli.gen.s": "s",
    "cli.split.s": "s",
    "cli.sweep.s": "s",
    "cli.report.s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.sweep_serial.s": "s",
    "cli.sweep.parallel_speedup": "ratio",
    "trace.overhead_frac": "ratio",
}

SELF_TIME = {
    "model.forward.s": "model.forward",
    "model.backward.s": "model.backward",
    "strategies.loop.s": "strategies.run",
}

SWEEP_METRICS = ("cli.sweep.s", "cli.sweep_serial.s")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return 1 if len(shape) == 1 else int(shape[0])


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _allocate_span(args, kwargs):
    plan = _arg(args, kwargs, 1, "plan")
    random = getattr(plan, "selection_strategy", "random") == "random"
    return "corpus.allocate_random" if random else "corpus.allocate_entropy"


# (span name or chooser, patch targets as (module, attribute), counter,
# metrics that need the span). A counter maps (result, args, kwargs) to
# {count name: amount}.
SPANS = [
    ("corpus.generate", [("corpus", "generate_synthetic_pool"), ("cli", "generate_synthetic_pool")],
     lambda r, a, k: {"corpus.generate.rows": len(r)},
     ["corpus.generate.s", "corpus.generate.rows"]),
    ("corpus.save", [("corpus", "save_corpus"), ("cli", "save_corpus")],
     lambda r, a, k: {"corpus.save.bytes": _size(_arg(a, k, 1, "path"))},
     ["corpus.save.s", "corpus.save.bytes"]),
    ("corpus.load", [("corpus", "load_corpus"), ("cli", "load_corpus")],
     lambda r, a, k: {"corpus.load.bytes": _size(_arg(a, k, 0, "path"))},
     ["corpus.load.s", "corpus.load.bytes"]),
    (_allocate_span, [("corpus", "allocate_budget"), ("cli", "allocate_budget")], None,
     ["corpus.allocate_random.s", "corpus.allocate_entropy.s"]),
    ("model.grad", [("strategies", "grad_batch"), ("strategies", "grad_batch_multilabel")],
     lambda r, a, k: {"model.grad.calls": 1, "model.grad.rows": _rows(_arg(a, k, 1, "X"))},
     ["model.grad.s", "model.grad.calls", "model.grad.rows"]),
    ("model.forward", [("model", "_forward_cached")], None, ["model.forward.s"]),
    ("model.backward", [("model", "_backprop")], None, ["model.backward.s"]),
    ("model.adam", [("strategies", "adam_step")], lambda r, a, k: {"model.adam.calls": 1},
     ["model.adam.s", "model.adam.calls"]),
    ("model.predict", [("model", "forward_logits"), ("cli", "forward_logits")],
     lambda r, a, k: {"model.predict.rows": _rows(r)},
     ["model.predict.s", "model.predict.rows"]),
    ("strategies.run", [("strategies", "run_strategy"), ("cli", "run_strategy")],
     lambda r, a, k: {"strategies.steps": len(r[1].entries)},
     ["strategies.steps", "strategies.loop.s"]),
    ("strategies.make_targets", [("strategies", "make_targets")], None,
     ["strategies.make_targets.s"]),
    ("strategies.pseudo_label", [("strategies", "pseudo_label")],
     lambda r, a, k: {"strategies.pseudo_label.rows": _rows(r)},
     ["strategies.pseudo_label.s", "strategies.pseudo_label.rows"]),
    ("strategies.pairing", [("strategies", "draw_pairing"), ("strategies", "apply_pairing")], None,
     ["strategies.pairing.s"]),
    ("calibrate.tune", [("calibrate", "tune_entropy_match")], None, ["calibrate.tune.s"]),
    ("metrics.evaluate", [("metrics", "evaluate_distribution"), ("metrics", "evaluate_typing"),
                          ("cli", "evaluate_distribution"), ("cli", "evaluate_typing")],
     lambda r, a, k: {"metrics.evaluate.rows": r.n_examples},
     ["metrics.evaluate.s", "metrics.evaluate.rows"]),
    ("metrics.write_report", [("metrics", "write_report"), ("cli", "write_report")],
     lambda r, a, k: {"metrics.write_report.bytes": _size(_arg(a, k, 1, "path"))},
     ["metrics.write_report.s", "metrics.write_report.bytes"]),
]

# Functions only counted, not timed: they are called too often for a span.
COUNTS = [
    ("calibrate.tune.entropy_evals", [("calibrate", "mean_entropy")]),
]


class Tracer:
    """Spans and counts of one process, kept in memory.

    A span is [name, start, end, parent index, pass id]; times come from
    ``time.perf_counter``, which on Linux is the system-wide monotonic
    clock, so spans written by child processes line up with ours.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.pass_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[(self.pass_id, name)] += amount

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    # -- patching ----------------------------------------------------------
    def _span_wrapper(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                for key, amount in counter(result, args, kwargs).items():
                    self.count(key, amount)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Patch every wrapper onto the library; record absent metrics."""
        absent = []
        for name, targets, counter, metrics in SPANS:
            if not self._install_targets(targets, lambda fn: self._span_wrapper(name, fn, counter)):
                absent += metrics
        for name, targets in COUNTS:
            if not self._install_targets(targets, lambda fn: self._count_wrapper(name, fn)):
                absent.append(name)
        self.absent = absent

    def _install_targets(self, targets, make) -> bool:
        found = False
        for mod_name, attr in targets:
            module = importlib.import_module(f"mixbudget.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self.patch(module, attr, make(fn))
            found = True
        return found

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans and counts as one JSON object."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans,
                       "counts": [[p, n, v] for (p, n), v in self.counts.items()]}, f)

    def merge(self, path, pass_id, parent: int) -> None:
        """Add the spans and counts a child process dumped to ``path`` to
        pass ``pass_id``; its root spans get ``parent`` as their parent."""
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
        base = len(self.spans)
        for name, start, end, p, _ in blob["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else p + base, pass_id])
        for _, name, amount in blob["counts"]:
            self.counts[(pass_id, name)] += amount

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, pass."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def pass_metrics(tracer: Tracer, pass_id) -> dict:
    """Per-layer totals of one pass: inclusive span time per name, self
    time for SELF_TIME metrics, and the counts."""
    total = defaultdict(float)
    child = defaultdict(float)
    for idx, (name, start, end, parent, span_pass) in enumerate(tracer.spans):
        if span_pass != pass_id:
            continue
        dur = end - start
        total[name] += dur
        if parent >= 0:
            child[parent] += dur
    self_time = defaultdict(float)
    for idx, (name, start, end, parent, span_pass) in enumerate(tracer.spans):
        if span_pass == pass_id and name in SELF_TIME.values():
            self_time[name] += (end - start) - child[idx]
    out = {}
    for metric in LAYER_METRICS:
        if metric in SELF_TIME:
            out[metric] = self_time[SELF_TIME[metric]]
        elif metric.endswith(".s"):
            out[metric] = total[metric[:-2]]
    for (span_pass, name), amount in tracer.counts.items():
        if span_pass == pass_id:
            out[name] = out.get(name, 0) + amount
    return out


def layer_metrics(tracer: Tracer, setup_id, pass_ids, extra_ids=()) -> dict:
    """Per-layer metrics for one set-up plus one pass: the traced set-up's
    totals plus the median over the traced passes. ``extra_ids`` hold the
    sweeps a traced pass runs at the other worker count; they count
    towards the two sweep times only."""
    setup = pass_metrics(tracer, setup_id)
    passes = [pass_metrics(tracer, p) for p in pass_ids]
    extras = [pass_metrics(tracer, p) for p in extra_ids]
    out = {}
    for metric in LAYER_METRICS:
        per_pass = [p.get(metric, 0) for p in passes] or [0]
        if metric in SWEEP_METRICS and extras:
            per_pass = [v + e.get(metric, 0) for v, e in zip(per_pass, extras)]
        out[metric] = setup.get(metric, 0) + statistics.median(per_pass)
    return out
