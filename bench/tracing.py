"""Spans and counts around the library's public functions, from outside it.

``installed(tracer)`` wraps each function in ``TARGETS`` in every module
namespace of the package that holds it (``dnn_to_spline`` lives in
``transfer``, ``synth``, ``analysis``, ``cli`` and the package itself), and
puts the original bindings back on exit.  A target that no longer exists
is skipped, so its metrics read as zero calls instead of failing the run.

A span is ``[name, start, end, parent]``; the benchmark opens a root span
per operation and the wrappers open the rest.  Spans and counts stay in
memory until ``per_pass_metrics`` turns them into per-pass figures.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

PACKAGE = "relusplines"


class Tracer:
    def __init__(self, measure_memory: bool = False):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict = {}
        self.measure_memory = measure_memory
        self._stack: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def peak(self, name: str, value: float):
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)


# ------------------------------------------------------- per-call hooks
# pre(tracer, args, kwargs) -> state; post(tracer, state, args, kwargs, result)


def _layer_transfer_post(tracer, state, args, kwargs, result):
    bundle = args[0] if args else kwargs["bundle"]
    tracer.counts["transfer.layer_transfer.knots_in"] += bundle.knots.shape[0]
    tracer.counts["transfer.layer_transfer.members"] += bundle.width
    tracer.counts["transfer.layer_transfer.knots_out"] += result.knots.shape[0]


def _canonicalize_post(tracer, state, args, kwargs, result):
    spline = args[0] if args else kwargs["spline"]
    tracer.counts["core.canonicalize.knots_in"] += spline.n_knots


def _synth_post(tracer, state, args, kwargs, result):
    weight = 0.0
    for layer in result.layers:
        for part in (layer.A, layer.b, layer.c):
            if part is not None and part.size:
                weight = max(weight, float(np.max(np.abs(part))))
    tracer.peak("synth.max_abs_weight", weight)


def _eval_spline_pre(tracer, args, kwargs):
    if not tracer.measure_memory:
        return None
    tracemalloc.reset_peak()
    return tracemalloc.get_traced_memory()[0]


def _eval_spline_post(tracer, state, args, kwargs, result):
    spline = args[0] if args else kwargs["spline"]
    points = args[1] if len(args) > 1 else kwargs["t"]
    tracer.counts["evaluate.eval_spline.points_x_knots"] += np.size(points) * spline.n_knots
    if state is not None:
        peak = tracemalloc.get_traced_memory()[1] - state
        tracer.peak("evaluate.eval_spline.peak_alloc_mb", peak / 2**20)


def _write_csv_pre(tracer, args, kwargs):
    stream = args[0] if args else kwargs["stream"]
    return stream.tell() if stream.seekable() else None


def _write_csv_post(tracer, state, args, kwargs, result):
    stream = args[0] if args else kwargs["stream"]
    if state is not None:
        tracer.counts["serialization.csv_bytes"] += stream.tell() - state


# (module, function, pre, post)
TARGETS = [
    ("transfer", "dnn_to_spline", None, None),
    ("transfer", "layer_transfer", None, _layer_transfer_post),
    ("transfer", "shallow_to_spline", None, None),
    ("transfer", "first_layer_canonicalize", None, None),
    ("core", "canonicalize", None, _canonicalize_post),
    ("normalize", "positive_scale_normalize", None, None),
    ("synth", "synth_two_hidden", None, _synth_post),
    ("synth", "synth_three_hidden", None, _synth_post),
    ("synth", "epsilon_select", None, None),
    ("evaluate", "eval_spline", _eval_spline_pre, _eval_spline_post),
    ("evaluate", "eval_network", None, None),
    ("evaluate", "probe_grid", None, None),
    ("analysis", "active_knots", None, None),
    ("serialization", "load_json", None, None),
    ("serialization", "dump_json", None, None),
    ("serialization", "write_csv", _write_csv_pre, _write_csv_post),
    ("cli", "main", None, None),
]


# a hook that no longer fits a changed signature loses its count, not the call
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _wrap(tracer: Tracer, name: str, original, pre, post):
    def traced(*args, **kwargs):
        state = None
        if pre:
            try:
                state = pre(tracer, args, kwargs)
            except _HOOK_ERRORS:
                tracer.counts["trace.hook_errors"] += 1
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.counts[f"{name}.calls"] += 1
        if post:
            try:
                post(tracer, state, args, kwargs, result)
            except _HOOK_ERRORS:
                tracer.counts["trace.hook_errors"] += 1
        return result

    traced.__wrapped__ = original
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Swap every binding of every target for a recording wrapper."""
    modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    swaps = []
    try:
        for module_name, function_name, pre, post in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, function_name, None)
            if not callable(original):
                continue
            wrapper = _wrap(tracer, f"{module_name}.{function_name}", original, pre, post)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        swaps.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(swaps):
            setattr(module, attr, original)


# ------------------------------------------------------------- summaries

SPAN_TIMES = {
    "transfer.dnn_to_spline": ("ms", "self_ms"),
    "transfer.layer_transfer": ("ms",),
    "transfer.shallow_to_spline": ("ms",),
    "transfer.first_layer_canonicalize": ("ms",),
    "core.canonicalize": ("ms",),
    "normalize.positive_scale_normalize": ("ms",),
    "synth.synth_two_hidden": ("ms",),
    "synth.synth_three_hidden": ("ms", "self_ms"),
    "synth.epsilon_select": ("ms",),
    "evaluate.eval_spline": ("ms",),
    "evaluate.eval_network": ("ms",),
    "evaluate.probe_grid": ("ms",),
    "analysis.active_knots": ("ms",),
    "serialization.load_json": ("ms",),
    "serialization.dump_json": ("ms",),
    "serialization.write_csv": ("ms",),
    "cli.main": ("ms", "self_ms"),
}
CALL_COUNTS = (
    "transfer.layer_transfer",
    "transfer.shallow_to_spline",
    "core.canonicalize",
)
COUNTERS = (
    "transfer.layer_transfer.knots_in",
    "transfer.layer_transfer.knots_out",
    "transfer.layer_transfer.members",
    "core.canonicalize.knots_in",
    "evaluate.eval_spline.points_x_knots",
    "serialization.csv_bytes",
    "synth.inactive_knots",
    "trace.hook_errors",
)


def accounting_problems(spans) -> list:
    """Children must lie inside their parent and must not overlap.

    Then each span's self time (its duration minus its children's) is
    non-negative, and self time plus children's time is its total.
    """
    problems = []
    last_end = {}
    for name, start, end, parent in spans:
        if end is None or end < start:
            problems.append(f"span {name} has no valid end")
            continue
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or (p_end is not None and end > p_end):
                problems.append(f"span {name} leaves its parent {spans[parent][0]}")
            if start < last_end.get(parent, p_start):
                problems.append(f"span {name} overlaps a sibling")
            last_end[parent] = end
    return problems


def per_pass_metrics(tracer: Tracer) -> dict:
    """Total and self milliseconds per function, calls and counters, for one pass.

    ``ms`` sums the spans of a name that are not nested in a span of the same
    name; ``self_ms`` sums each span's duration minus its children's.
    """
    spans = tracer.spans
    children_ms = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children_ms[parent] += (end - start) * 1e3
    total: Counter = Counter()
    own: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        duration = (end - start) * 1e3
        own[name] += duration - children_ms[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] += duration
    out = {}
    for name, kinds in SPAN_TIMES.items():
        out[f"{name}.ms"] = total[name]
        if "self_ms" in kinds:
            out[f"{name}.self_ms"] = own[name]
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = float(tracer.counts[f"{name}.calls"])
    for name in COUNTERS:
        out[name] = float(tracer.counts[name])
    builds = tracer.counts["synth.synth_two_hidden.calls"] + tracer.counts["synth.synth_three_hidden.calls"]
    conversions = tracer.counts["transfer.dnn_to_spline.calls"]
    out["synth.conversions"] = conversions / builds if builds else 0.0
    out["synth.max_abs_weight"] = tracer.peaks.get("synth.max_abs_weight", 0.0)
    return out
