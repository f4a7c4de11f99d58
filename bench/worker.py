"""One workload in one process: set up, warm up, then measure passes.

Started by ``run.py``; prints one JSON object as its last stdout line.
After the warm-up pass it times untraced passes for ``--seconds``, or,
with ``--trace``, runs a tracemalloc pass and then alternates untraced and
traced passes for ``--seconds``.

Host speed.  The host this was built on runs in phases that last seconds;
in a slow phase the same pass takes up to 1.8 times as long.  A probe of 2
to 25 ms runs before each pass and after every 50 ms of operations and
measures two slownesses against the reference host, ``loop`` and ``dense``.
A workload's time grows as loop^a * dense^b with the workload's
``speed_exponents`` (a, b), so each operation's wall time is divided by
that product, taken over the two probes around it, to give its time at
the reference speed.  Set-up time is divided the same way, with the
median of the warm-up pass's probes.
"""

import time

T_TOP = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

T_NUMPY = time.clock_gettime(time.CLOCK_MONOTONIC)

import relusplines  # noqa: E402,F401

T_LIBRARY = time.clock_gettime(time.CLOCK_MONOTONIC)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# probe times in a fast phase of the reference host (2.0 GHz Xeon VM)
LOOP_REF_MS = 1.7
DENSE_REF_MS = 22.0
SEGMENT_S = 0.05
_LOOP_DATA = np.sort(np.random.default_rng(0).uniform(size=500))
_DENSE_POINTS = np.linspace(0.0, 1.0, 10_000)
_DENSE_KNOTS = np.linspace(0.0, 1.0, 400)


def probe(dense: bool) -> tuple:
    """How much slower than the reference host this host runs now.

    Returns (loop, dense), each 1.0 at the reference speed: a per-element
    merge loop over numpy scalars, the kind of loop the library's
    conversion spends its time in, and a dense hinge-matrix evaluation of
    10^4 points x 400 knots (32 MB temporaries), the kind of memory traffic
    ``eval_spline`` has.  The dense part runs only where asked (it reads
    1.0 otherwise): its temporaries would count in other workloads' peak
    memory and evict their caches.
    """
    start = time.perf_counter()
    xs = _LOOP_DATA
    n = xs.shape[0]
    groups = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and xs[j] - xs[j - 1] <= 1e-4:
            j += 1
        groups.append(float(np.sum(xs[i:j])))
        i = j
    loop = (time.perf_counter() - start) * 1e3 / LOOP_REF_MS
    if not dense:
        return loop, 1.0
    start = time.perf_counter()
    hinges = np.maximum(_DENSE_POINTS[:, None] - _DENSE_KNOTS[None, :], 0.0)
    hinges @ _DENSE_KNOTS
    del hinges
    return loop, (time.perf_counter() - start) * 1e3 / DENSE_REF_MS


def speed_factor(probes, exponents) -> float:
    """Reference-speed time over wall time, for the given probe results."""
    loop = statistics.median(p[0] for p in probes)
    dense = statistics.median(p[1] for p in probes)
    return loop ** -exponents[0] * dense ** -exponents[1]


class Pass:
    """Outputs and timings of one pass over the input set."""

    def __init__(self, ops, exponents, tracer=None):
        self.outputs = []
        self.wall = []
        self.scaled = [0.0] * len(ops)
        dense = exponents[1] != 0
        self.probes = [probe(dense)]
        segment = []
        for index, op in enumerate(ops):
            root = tracer.open("op") if tracer else None
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception as err:  # an operation that raises counts as failed
                output = err
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(root)
            self.outputs.append(output)
            self.wall.append(elapsed)
            segment.append(index)
            if sum(self.wall[i] for i in segment) >= SEGMENT_S or index == len(ops) - 1:
                self.probes.append(probe(dense))
                factor = speed_factor(self.probes[-2:], exponents)
                for i in segment:
                    self.scaled[i] = self.wall[i] * factor
                segment = []

    def failures(self, ops, full: bool) -> dict:
        out = {}
        for op, output in zip(ops, self.outputs):
            if isinstance(output, Exception):
                problems = [f"raised {type(output).__name__}: {output}"]
            else:
                problems = op.check(output, full)
            if problems:
                out[op.name] = problems
        return out

    def counts(self, ops) -> dict:
        total: dict = {}
        for op, output in zip(ops, self.outputs):
            if op.counts and not isinstance(output, Exception):
                for key, value in op.counts(output).items():
                    total[key] = total.get(key, 0) + value
        return total

    def pass_ms(self) -> float:
        return sum(self.scaled) * 1e3

    def largest_ms(self, ops) -> list:
        return [t * 1e3 for op, t in zip(ops, self.scaled) if op.largest]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Ledger:
    """Attempted and failed operations over the measured passes."""

    def __init__(self, ops, warmup_failures: dict):
        self.ops = ops
        self.expected = set(warmup_failures)
        self.attempted = 0
        self.failed = 0
        self.consistent = True
        self.problems = dict(warmup_failures)

    def add(self, run: Pass):
        failures = run.failures(self.ops, full=False)
        failing = set(failures) | self.expected
        self.attempted += len(self.ops)
        self.failed += len(failing)
        if failing != self.expected:
            self.consistent = False
            self.problems.update(failures)


def timed_passes(ops, exponents, ledger: Ledger, deadline: float) -> dict:
    passes = []
    while not passes or time.perf_counter() < deadline:
        run = Pass(ops, exponents)
        ledger.add(run)
        passes.append(run)
        gc.collect()
    return {
        "pass_ms": [p.pass_ms() for p in passes],
        "largest_ms": [t for p in passes for t in p.largest_ms(ops)],
        "wall_pass_ms": [sum(p.wall) * 1e3 for p in passes],
        "op_wall_ms": [[t * 1e3 for t in p.wall] for p in passes],
        "op_scaled_ms": [[t * 1e3 for t in p.scaled] for p in passes],
        "probes": [p.probes for p in passes],
    }


def traced_passes(ops, exponents, ledger: Ledger, deadline: float, workdir: Path) -> dict:
    """A tracemalloc pass, then untraced and traced passes in turn."""
    tracemalloc.start()
    memory_tracer = tracing.Tracer(measure_memory=True)
    with tracing.installed(memory_tracer):
        ledger.add(Pass(ops, exponents, memory_tracer))
    tracemalloc.stop()
    untraced, traced, layers, span_problems = [], [], [], []
    while not traced or time.perf_counter() < deadline:
        run = Pass(ops, exponents)
        ledger.add(run)
        untraced.append(run)
        gc.collect()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            run = Pass(ops, exponents, tracer)
        ledger.add(run)
        traced.append(run)
        tracer.counts.update(run.counts(ops))
        layers.append(tracing.per_pass_metrics(tracer))
        span_problems += tracing.accounting_problems(tracer.spans)
        gc.collect()
    (workdir / "trace-spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    per_layer = {name: median([m[name] for m in layers]) for name in layers[0]}
    per_layer["evaluate.eval_spline.peak_alloc_mb"] = memory_tracer.peaks.get(
        "evaluate.eval_spline.peak_alloc_mb", 0.0
    )
    traced_ms = median([p.pass_ms() for p in traced])
    untraced_ms = median([p.pass_ms() for p in untraced])
    per_layer["trace.pass_ms"] = traced_ms
    per_layer["trace.untraced_pass_ms"] = untraced_ms
    per_layer["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    per_layer["host.loop_slowness"] = median([t[0] for p in untraced for t in p.probes])
    per_layer["host.dense_slowness"] = median([t[1] for p in untraced for t in p.probes])
    per_layer["host.wall_pass_ms"] = median([sum(p.wall) * 1e3 for p in untraced])
    return {"per_layer": per_layer, "span_problems": span_problems[:20]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="parent's CLOCK_MONOTONIC at spawn")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    exponents = workload.speed_exponents
    ops = workload.build(args.seed, workdir)
    warmup = Pass(ops, exponents)
    ledger = Ledger(ops, warmup.failures(ops, full=True))
    gc.collect()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {
        "setup_s": (ready - args.t0) * speed_factor(warmup.probes, exponents),
        "setup_wall_s": ready - args.t0,
        "start_s": T_TOP - args.t0,
        "numpy_import_s": T_NUMPY - T_TOP,
        "library_import_s": T_LIBRARY - T_NUMPY,
        "inputs_and_warmup_s": ready - T_LIBRARY,
    }
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        result.update(traced_passes(ops, exponents, ledger, deadline, workdir))
    else:
        result.update(timed_passes(ops, exponents, ledger, deadline))
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        consistent=ledger.consistent,
        problems=ledger.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
