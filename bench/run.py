"""Benchmark of relusplines: conversion, synthesis, evaluation and file I/O.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts the workload in
fresh worker processes (``worker.py``) with one BLAS thread, one at a time,
and prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` runs PROCESSES workers that each
set up and then time passes for a share of ``--seconds``, and reports the
end-to-end metrics as medians over all their passes and set-ups;
``--trace 1`` runs one traced worker and reports the per-layer metrics.
Work files go to ``.bench_out/<workload>/``.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = ("deep-sawtooth", "wide-random", "synth-bound", "eval-io")
PROCESSES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {"pass_ms": "ms", "largest_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "transfer.dnn_to_spline.ms": "ms",
    "transfer.dnn_to_spline.self_ms": "ms",
    "transfer.layer_transfer.ms": "ms",
    "transfer.layer_transfer.calls": "count",
    "transfer.layer_transfer.knots_in": "count",
    "transfer.layer_transfer.knots_out": "count",
    "transfer.layer_transfer.members": "count",
    "transfer.shallow_to_spline.ms": "ms",
    "transfer.shallow_to_spline.calls": "count",
    "transfer.first_layer_canonicalize.ms": "ms",
    "core.canonicalize.ms": "ms",
    "core.canonicalize.calls": "count",
    "core.canonicalize.knots_in": "count",
    "normalize.positive_scale_normalize.ms": "ms",
    "synth.synth_two_hidden.ms": "ms",
    "synth.synth_three_hidden.ms": "ms",
    "synth.synth_three_hidden.self_ms": "ms",
    "synth.epsilon_select.ms": "ms",
    "synth.conversions": "count",
    "synth.max_abs_weight": "abs",
    "synth.inactive_knots": "count",
    "evaluate.eval_spline.ms": "ms",
    "evaluate.eval_spline.points_x_knots": "count",
    "evaluate.eval_spline.peak_alloc_mb": "MB",
    "evaluate.eval_network.ms": "ms",
    "evaluate.probe_grid.ms": "ms",
    "analysis.active_knots.ms": "ms",
    "serialization.load_json.ms": "ms",
    "serialization.dump_json.ms": "ms",
    "serialization.write_csv.ms": "ms",
    "serialization.csv_bytes": "bytes",
    "cli.main.ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.pass_ms": "ms",
    "trace.untraced_pass_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.hook_errors": "count",
    "host.loop_slowness": "ratio",
    "host.dense_slowness": "ratio",
    "host.wall_pass_ms": "ms",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, seconds: float, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--workdir", str(workdir),
    ] + (["--trace"] if args.trace else [])
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            command + ["--t0", repr(t0)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"worker timed out after {CHILD_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "relusplines" / "__init__.py").is_file():
        print(f"error: no relusplines sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            runs = [spawn(args, args.seconds, workdir)]
            metrics = {
                name: metric(runs[0]["per_layer"][name], unit) for name, unit in PER_LAYER.items()
            }
            correct = runs[0]["consistent"] and not runs[0]["span_problems"]
        else:
            runs = [spawn(args, args.seconds / PROCESSES, workdir) for _ in range(PROCESSES)]
            values = {
                "pass_ms": statistics.median(t for r in runs for t in r["pass_ms"]),
                "largest_ms": statistics.median(t for r in runs for t in r["largest_ms"]),
                "setup_s": statistics.median(r["setup_s"] for r in runs),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
            metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
            correct = all(r["consistent"] for r in runs)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    (workdir / "run.json").write_text(json.dumps(runs, indent=1))
    problems = {k: v for r in runs for k, v in r["problems"].items()}
    if problems:
        print(f"failed operations: {json.dumps(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
