"""Self-test of the benchmark: one pass of every workload, then planted faults.

    python3 bench/selftest.py [--seed N]

Runs each workload's input set once, through the same ``Pass`` the timed
runs use, with every check on; only the evenly spread 10 x 10 two-hidden
build may fail.  Then it plants wrong outputs and requires each check to
reject them, and exercises the tracing layer: a wrapped name that does not
exist reads as zero calls, a count hook that fails loses its count but
not the call, bindings come back after tracing, and spans that leave their
parent are reported.  Exits 0 when everything holds.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import relusplines as rs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from run import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, shortest  # noqa: E402

EXPECTED_FAILURES = {"synth-bound": {"two-10x10-even"}}


def with_knot(spline, index: int, knot: float):
    knots = np.array(spline.knots)
    knots[index] = knot
    return rs.CplSpline(spline.q1, spline.q0, knots, spline.coeffs)


def without_knot(spline, x: float):
    keep = np.abs(spline.knots - x) > 1e-9
    return rs.CplSpline(spline.q1, spline.q0, spline.knots[keep], spline.coeffs[keep])


def planted_sawtooth(ops, outputs, workdir):
    op, spline = ops[0], outputs[0]
    return op.check(with_knot(spline, 5, spline.knots[5] + 1e-6), True)


def planted_wide(ops, outputs, workdir):
    op, spline = ops[-1], outputs[-1]
    coeffs = np.array(spline.coeffs)
    coeffs[coeffs.size // 2] *= 1 + 1e-6
    return op.check(rs.CplSpline(spline.q1, spline.q0, spline.knots, coeffs), False)


def planted_synth(ops, outputs, workdir):
    op, built = ops[2], outputs[2]
    knot = float(built.spline.knots[built.spline.n_knots // 2])
    return op.check(dataclasses.replace(built, spline=without_knot(built.spline, knot)), True)


def planted_csv(ops, outputs, workdir: Path):
    index = next(i for i, op in enumerate(ops) if op.name.startswith("eval-"))
    path = workdir / f"eval-{ops[index].name.rsplit('-', 1)[1]}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    t, value = lines[len(lines) // 3].split(",")
    lines[len(lines) // 3] = f"{t},{shortest(float(value) + 1e-6)}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ops[index].check(outputs[index], True)


PLANTED = {
    "deep-sawtooth": ("one knot moved by 1e-6", planted_sawtooth),
    "wide-random": ("one coefficient scaled by 1 + 1e-6", planted_wide),
    "synth-bound": ("one prescribed knot dropped", planted_synth),
    "eval-io": ("one CSV value perturbed by 1e-6", planted_csv),
}


def tracing_problems() -> list:
    problems = []
    original = rs.transfer.dnn_to_spline
    saved = list(tracing.TARGETS)
    tracing.TARGETS.append(("transfer", "removed_function", None, None))
    tracing.TARGETS[0] = ("transfer", "dnn_to_spline", None, lambda *a: a[-1].no_such_field)
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer):
            if rs.transfer.dnn_to_spline is original or rs.dnn_to_spline is original:
                problems.append("dnn_to_spline was not wrapped")
            net = rs.ReluNetwork.shallow([1.0, -1.0], [0.0, 1.0], [1.0, 2.0])
            root = tracer.open("op")
            rs.dnn_to_spline(net)
            tracer.close(root)
    finally:
        tracing.TARGETS[:] = saved
    if rs.transfer.dnn_to_spline is not original or rs.synth.dnn_to_spline is not original:
        problems.append("bindings were not restored")
    metrics = tracing.per_pass_metrics(tracer)
    if metrics["transfer.dnn_to_spline.ms"] <= 0 or tracer.counts["transfer.dnn_to_spline.calls"] != 1:
        problems.append("dnn_to_spline call not recorded")
    if tracer.counts["transfer.removed_function.calls"] != 0:
        problems.append("a missing function recorded calls")
    if tracer.counts["trace.hook_errors"] != 1:
        problems.append("a failing count hook was not contained")
    if tracing.accounting_problems(tracer.spans):
        problems.append(f"valid spans rejected: {tracing.accounting_problems(tracer.spans)}")
    planted = [["op", 0.0, 1.0, -1], ["a", 0.1, 0.6, 0], ["b", 0.5, 1.2, 0]]
    if len(tracing.accounting_problems(planted)) != 2:
        problems.append("overlapping or escaping spans not reported")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    declared_layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if declared_layers != PER_LAYER:
        print("FAIL per-layer metrics in BENCHMARK.json differ from run.py")
        ok = False
    for name in declared["workloads"]:
        workload = name["name"]
        workdir = ROOT / ".bench_out" / "selftest" / workload
        workdir.mkdir(parents=True, exist_ok=True)
        ops = WORKLOADS[workload].build(args.seed, workdir)
        one = worker.Pass(ops, WORKLOADS[workload].speed_exponents)
        failures = one.failures(ops, full=True)
        expected = EXPECTED_FAILURES.get(workload, set())
        status = "ok" if set(failures) == expected else "FAIL"
        ok &= status == "ok"
        print(f"{status} {workload}: {len(ops)} operations, failed {sorted(failures)}")
        what, plant = PLANTED[workload]
        caught = plant(ops, one.outputs, workdir)
        print(f"{'ok' if caught else 'FAIL'} {workload}: planted {what} -> {caught[:1]}")
        ok &= bool(caught)
    problems = tracing_problems()
    print(f"{'ok' if not problems else 'FAIL'} tracing: {problems}")
    ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
