"""Input sets, operations and output checks of the four benchmark workloads.

Each workload turns a seed into a fixed list of operations.  The seed
changes the numbers inside the inputs but never their sizes, so every seed
asks for the same amount of work.  An operation's ``run`` is the timed call
into the library; its ``check`` runs afterwards, untimed, and compares the
output with a computation made apart from the library (closed forms, the
benchmark's own spline evaluator, exact knot positions) or with a property
the method must have.  ``check(output, full)`` returns a list of problems;
``full`` adds the checks that cost extra conversions, which run on the
warm-up pass.

The library is always called through ``rs.<name>`` or ``cli.main`` so that
the traced run, which swaps those module bindings, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import relusplines as rs
import relusplines.cli as cli

EVAL_TOL = 1e-8  # the library's default relative tolerance for function equality
ZERO_TOL = 1e-10  # the library's default threshold for an active coefficient
ACTIVITY_TOL = 1e-9  # the library's distance within which a prescribed knot is realized


@dataclass
class Op:
    """One timed call and its check."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, bool], list]
    largest: bool = False
    counts: Callable[[Any], dict] | None = None


# ---------------------------------------------------------------- oracles


def spline_values(spline, ts) -> np.ndarray:
    """The spline at ts, from its piecewise form anchored at left knots.

    Independent of ``rs.eval_spline``: values at the knots are a cumulative
    sum of slope times gap, so memory stays linear in points plus knots.
    """
    ts = np.asarray(ts, dtype=float)
    knots = np.asarray(spline.knots, dtype=float)
    if knots.size == 0:
        return spline.q1 * ts + spline.q0
    slopes = spline.q1 + np.concatenate(([0.0], np.cumsum(spline.coeffs)))
    at_knots = spline.q1 * knots[0] + spline.q0 + np.concatenate(
        ([0.0], np.cumsum(slopes[1:-1] * np.diff(knots)))
    )
    interval = np.searchsorted(knots, ts, side="right")
    anchor = np.maximum(interval - 1, 0)
    inside = at_knots[anchor] + slopes[interval] * (ts - knots[anchor])
    return np.where(interval == 0, spline.q1 * ts + spline.q0, inside)


def grid_for(knots, margin: float = 1.0) -> np.ndarray:
    """Knots, interval midpoints and one flank point each side."""
    knots = np.asarray(knots, dtype=float)
    if knots.size == 0:
        return np.array([-margin, 0.0, margin])
    mids = 0.5 * (knots[:-1] + knots[1:])
    return np.concatenate(([knots[0] - margin], knots, mids, [knots[-1] + margin]))


def relative_gap(reference, values) -> float:
    reference = np.asarray(reference, dtype=float)
    values = np.asarray(values, dtype=float)
    if reference.size == 0:
        return 0.0
    return float(np.max(np.abs(reference - values) / (1.0 + np.abs(reference))))


def forward_oracle(net, spline) -> list:
    grid = grid_for(spline.knots)
    error = relative_gap(rs.eval_network(net, grid), spline_values(spline, grid))
    return [] if error <= EVAL_TOL else [f"forward pass differs from spline by {error:.3e}"]


def width_bound(widths) -> int:
    bound = 1
    for w in widths[1:-1]:
        bound *= w + 1
    return bound - 1


def same_spline(a, b) -> bool:
    if a.n_knots != b.n_knots:
        return False
    knot_scale = 1.0 + (float(np.max(np.abs(a.knots))) if a.n_knots else 0.0)
    coeff_scale = 1.0 + max(
        abs(a.q1), abs(a.q0), float(np.max(np.abs(a.coeffs))) if a.n_knots else 0.0
    )
    return (
        bool(np.all(np.abs(a.knots - b.knots) <= 1e-9 * knot_scale))
        and bool(np.all(np.abs(a.coeffs - b.coeffs) <= EVAL_TOL * coeff_scale))
        and abs(a.q1 - b.q1) <= EVAL_TOL * coeff_scale
        and abs(a.q0 - b.q0) <= EVAL_TOL * coeff_scale
    )


def identical_spline(a, b) -> bool:
    return (
        a.q1 == b.q1
        and a.q0 == b.q0
        and np.array_equal(a.knots, b.knots)
        and np.array_equal(a.coeffs, b.coeffs)
    )


# ---------------------------------------------------------- deep-sawtooth


def sawtooth(depth: int, rng: np.random.Generator) -> rs.ReluNetwork:
    """Width-2 network of ``depth`` tent maps; equals the depth-fold tent map.

    The tent map is 2 relu(z) - 4 relu(z - 1/2).  The seed reorders the two
    units of each hidden layer and rescales each unit by a power of two,
    undone in the next layer; both are exact in floating point, so the
    function, and with it the knots j / 2^depth, stay exact.
    """
    layers = []
    prev_scale = np.ones(2)
    prev_order = np.arange(2)
    for level in range(depth):
        scale = 2.0 ** rng.integers(-2, 3, 2)
        order = rng.permutation(2)
        if level == 0:
            a = np.array([[1.0], [1.0]])
            c = None
        else:
            a = np.array([[2.0, -4.0], [2.0, -4.0]])[:, prev_order] / prev_scale[None, :]
            c = np.zeros(2)
        a = (a * scale[:, None])[order]
        b = (np.array([0.0, -0.5]) * scale)[order]
        layers.append(rs.Layer(a, b, c))
        prev_scale, prev_order = scale[order], order
    out = np.array([[2.0, -4.0]])[:, prev_order] / prev_scale[None, :]
    layers.append(rs.Layer(out, np.zeros(1), np.zeros(1)))
    return rs.ReluNetwork(tuple(layers))


def sawtooth_problems(depth: int, spline) -> list:
    """Knots exactly j / 2^depth, values j mod 2 there, flat zero outside."""
    count = 2**depth
    expected = np.arange(count + 1) / count
    if spline.n_knots != count + 1:
        return [f"{spline.n_knots} knots, expected {count + 1}"]
    if not np.array_equal(spline.knots, expected):
        worst = float(np.max(np.abs(spline.knots - expected)))
        return [f"knots off j/2^{depth} by up to {worst:.3e}"]
    problems = []
    gap = relative_gap(np.arange(count + 1) % 2, spline_values(spline, spline.knots))
    if gap > EVAL_TOL:
        problems.append(f"values at knots differ from j mod 2 by {gap:.3e}")
    if spline.q1 != 0.0 or spline.q0 != 0.0:
        problems.append("nonzero left tail")
    return problems


def sawtooth_closed_form(depth: int, ts) -> np.ndarray:
    count = 2**depth
    return np.interp(ts, np.arange(count + 1) / count, (np.arange(count + 1) % 2).astype(float))


def deep_sawtooth(seed: int, workdir: Path) -> list:
    """Depths 9 to 14: 513 to 16385 knots, the most knots per parameter."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for depth in range(9, 15):
        net = sawtooth(depth, rng)

        def check(spline, full, depth=depth, net=net):
            problems = sawtooth_problems(depth, spline)
            grid = grid_for(np.arange(2**depth + 1) / 2**depth, margin=0.5)
            gap = relative_gap(sawtooth_closed_form(depth, grid), rs.eval_network(net, grid))
            if gap > EVAL_TOL:
                problems.append(f"forward pass differs from the closed form by {gap:.3e}")
            return problems

        ops.append(
            Op(f"sawtooth-L{depth}", lambda net=net: rs.dnn_to_spline(net), check, depth == 14)
        )
    return ops


# ------------------------------------------------------------ wide-random

WIDE_ARCHS = [
    ((16, 16), 2),
    ((32, 32), 2),
    ((64, 64), 2),
    ((16, 16, 16), 2),
    ((32, 32, 32), 2),
    ((64, 64, 64), 2),
    ((16, 16, 16, 16), 2),
    ((32, 32, 32, 32), 2),
    ((64, 64, 64, 64), 4),
]


def random_network(hidden, rng: np.random.Generator) -> rs.ReluNetwork:
    """He-scaled random network; first-layer units never dead."""
    widths = (1,) + tuple(hidden) + (1,)
    first = rng.choice([-1.0, 1.0], (widths[1], 1)) * rng.uniform(0.5, 2.0, (widths[1], 1))
    layers = [rs.Layer(first, rng.uniform(-2.0, 2.0, widths[1]))]
    for i in range(2, len(widths)):
        n_in = widths[i - 1]
        layers.append(
            rs.Layer(
                rng.normal(0.0, np.sqrt(2.0 / n_in), (widths[i], n_in)),
                rng.normal(0.0, 0.5, widths[i]),
                rng.normal(0.0, 0.5, widths[i]),
            )
        )
    return rs.ReluNetwork(tuple(layers))


def reparametrized(net: rs.ReluNetwork, rng: np.random.Generator) -> rs.ReluNetwork:
    """Same function: hidden units permuted and rescaled by powers of two.

    Unit u of a hidden layer becomes d_u times itself (d_u > 0) and the next
    layer's column u is divided by d_u; relu(d z) = d relu(z), and powers
    of two keep every product exact.
    """
    layers = list(net.layers)
    for i in range(len(layers) - 1):
        layer, successor = layers[i], layers[i + 1]
        order = rng.permutation(layer.out_width)
        scale = 2.0 ** rng.integers(-2, 3, layer.out_width)
        c = None if layer.c is None else (layer.c * scale)[order]
        layers[i] = rs.Layer((layer.A * scale[:, None])[order], (layer.b * scale)[order], c)
        layers[i + 1] = rs.Layer(
            (successor.A / scale[None, :])[:, order], successor.b, successor.c
        )
    return rs.ReluNetwork(tuple(layers))


def doubled_output(net: rs.ReluNetwork) -> rs.ReluNetwork:
    last = net.layers[-1]
    return rs.ReluNetwork(net.layers[:-1] + (rs.Layer(2.0 * last.A, 2.0 * last.b, 2.0 * last.c),))


def scaled_spline(spline, k: float):
    return rs.CplSpline(k * spline.q1, k * spline.q0, spline.knots, k * spline.coeffs)


def wide_random(seed: int, workdir: Path) -> list:
    """Widths 16 to 64, depth 3 to 5: few knots, many bundle members.

    The random functions are one fixed draw; the seed reparametrizes them.
    A fresh draw per seed would change the knot counts, and with them the
    work, by several percent from seed to seed.
    """
    rng = np.random.default_rng([seed, 2])
    ops = []
    for arch, (hidden, copies) in enumerate(WIDE_ARCHS):
        for copy in range(copies):
            net = reparametrized(random_network(hidden, np.random.default_rng([arch, copy])), rng)
            checked = {}

            def run(net=net):
                return rs.dnn_to_spline(rs.positive_scale_normalize(net))

            def check(spline, full, net=net, checked=checked):
                problems = forward_oracle(net, spline)
                bound = width_bound(net.widths)
                if spline.n_knots > bound:
                    problems.append(f"{spline.n_knots} knots above the bound {bound}")
                if full:
                    if not same_spline(rs.dnn_to_spline(doubled_output(net)), scaled_spline(spline, 2.0)):
                        problems.append("doubling the last layer does not double the spline")
                    if not same_spline(rs.dnn_to_spline(net), spline):
                        problems.append("normalized and raw network convert differently")
                    checked["spline"] = spline
                elif not identical_spline(checked["spline"], spline):
                    # the metamorphic checks ran on the warm-up output only
                    problems.append("output differs from the fully checked warm-up output")
                return problems

            name = "x".join(map(str, hidden))
            ops.append(Op(f"random-{name}-{copy}", run, check, hidden == (64, 64, 64, 64)))
    return ops


# ------------------------------------------------------------ synth-bound


def even_knots(count: int) -> np.ndarray:
    return np.linspace(-10.0, 10.0, count)


def gapped_knots(count: int, rng: np.random.Generator) -> np.ndarray:
    """Knots on (-10, 10) with gaps that differ by at most a factor of 3."""
    gaps = rng.uniform(0.5, 1.5, count + 1)
    return -10.0 + 20.0 * np.cumsum(gaps)[:-1] / np.sum(gaps)


@dataclass
class Built:
    net: Any
    spline: Any
    inactive: int


def build_and_verify(h: rs.KnotHierarchy, wanted: np.ndarray) -> Built:
    """Synthesize and verify the way the ``synth`` subcommand does."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if h.level3 is None:
            net = rs.synth_two_hidden(h)
        else:
            net = rs.synth_three_hidden(h, rng=np.random.default_rng(0))
    spline = rs.dnn_to_spline(net)
    active = np.array([x for x, _ in rs.active_knots(spline)])
    if active.size == 0:
        return Built(net, spline, int(wanted.size))
    gaps = np.min(np.abs(wanted[:, None] - active[None, :]), axis=1)
    return Built(net, spline, int(np.sum(gaps > ACTIVITY_TOL)))


def nearest(sorted_xs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Index of the nearest entry of a nonempty sorted array, for each x."""
    right = np.searchsorted(sorted_xs, xs).clip(0, sorted_xs.size - 1)
    left = (right - 1).clip(0, sorted_xs.size - 1)
    closer_left = np.abs(sorted_xs[left] - xs) < np.abs(sorted_xs[right] - xs)
    return np.where(closer_left, left, right)


def inactive_prescribed(spline, wanted) -> np.ndarray:
    active = spline.knots[np.abs(spline.coeffs) > ZERO_TOL]
    if active.size == 0:
        return wanted
    return wanted[np.abs(active[nearest(active, wanted)] - wanted) > ACTIVITY_TOL]


def coefficient_problems(h: rs.KnotHierarchy, net, spline) -> list:
    """Two-hidden coefficients against the closed form from the hierarchy."""
    level2, level1 = rs.coeffs_from_knots(h, net.layers[2].A[0], net.layers[1].c)
    xs = np.concatenate((h.level1, h.level2.ravel()))
    expected = np.concatenate((level1, level2.ravel()))
    if spline.n_knots == 0:
        return ["no knots to compare with the closed form"]
    at = nearest(spline.knots, xs)
    found = np.abs(spline.knots[at] - xs) <= ACTIVITY_TOL
    got = np.where(found, spline.coeffs[at], 0.0)
    scale = 1.0 + float(np.max(np.abs(expected)))
    worst = float(np.max(np.abs(got - expected)))
    return [] if worst <= EVAL_TOL * scale else [f"coefficients off the closed form by {worst:.3e}"]


def synth_op(name: str, h: rs.KnotHierarchy, largest: bool = False) -> Op:
    wanted = rs.prescribed_knots(h)

    def check(built, full):
        spline = built.spline
        problems = []
        missing = inactive_prescribed(spline, wanted)
        if missing.size:
            problems.append(f"{missing.size} of {wanted.size} prescribed knots inactive")
        if h.level3 is None:
            active = int(np.sum(np.abs(spline.coeffs) > ZERO_TOL))
            bound = width_bound(built.net.widths)
            if active != bound:
                problems.append(f"{active} active knots, bound {bound}")
            problems += coefficient_problems(h, built.net, spline)
        return problems + forward_oracle(built.net, spline)

    return Op(
        name,
        lambda: build_and_verify(h, wanted),
        check,
        largest,
        lambda built: {"synth.inactive_knots": built.inactive},
    )


def synth_bound(seed: int, workdir: Path) -> list:
    """Builds that reach the width bound, evenly spread and with random gaps.

    The evenly spread 10 x 10 two-hidden build comes back with 6 of its
    120 knots inactive on every seed and is counted as failed.
    """
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n in range(2, 6):
        h = rs.hierarchy_from_flat(even_knots(n + n * (n + 1)), n, n)
        ops.append(synth_op(f"two-{n}x{n}-even", h))
    h = rs.hierarchy_from_flat(even_knots(10 + 10 * 11), 10, 10)
    ops.append(synth_op("two-10x10-even", h))
    for n1, n2, n3 in ((3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6), (7, 7, 6)):
        count = n1 + n2 * (n1 + 1) + n3 * (n2 + 1)
        h = rs.hierarchy_from_flat(even_knots(count), n1, n2, n3)
        ops.append(synth_op(f"three-{n1}x{n2}x{n3}-even", h, (n1, n2, n3) == (7, 7, 6)))
    for copy in range(4):
        for n in range(2, 6):
            h = rs.hierarchy_from_flat(gapped_knots(n + n * (n + 1), rng), n, n)
            ops.append(synth_op(f"two-{n}x{n}-gaps-{copy}", h))
        for n1, n2, n3 in ((4, 4, 4), (5, 5, 5), (6, 6, 5)):
            count = n1 + n2 * (n1 + 1) + n3 * (n2 + 1)
            h = rs.hierarchy_from_flat(gapped_knots(count, rng), n1, n2, n3)
            ops.append(synth_op(f"three-{n1}x{n2}x{n3}-gaps-{copy}", h))
    return ops


# ---------------------------------------------------------------- eval-io

EVAL_SAMPLES = 100_000
EVAL_DEPTHS = (8, 10, 10)


def run_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def shortest(value: float) -> str:
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def csv_problems(path: Path, start: float, stop: float, depth: int) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != EVAL_SAMPLES:
        return [f"{len(lines)} CSV rows, expected {EVAL_SAMPLES}"]
    fields = [line.split(",") for line in lines]
    if any(len(f) != 2 for f in fields):
        return ["CSV row without exactly two fields"]
    ts = np.array([float(f[0]) for f in fields])
    values = np.array([float(f[1]) for f in fields])
    if any(shortest(float(text)) != text for pair in fields for text in pair):
        return ["CSV field is not the shortest round-trip decimal"]
    problems = []
    if not np.array_equal(ts, np.linspace(start, stop, EVAL_SAMPLES)):
        problems.append("CSV t column differs from the requested grid")
    gap = relative_gap(sawtooth_closed_form(depth, ts), values)
    if gap > EVAL_TOL:
        problems.append(f"CSV values differ from interpolated knot values by {gap:.3e}")
    return problems


def eval_io(seed: int, workdir: Path) -> list:
    """CLI round trip on files: to-spline, eval at 10^5 points, verify.

    Two of the three networks have 1025 knots, so a run holds twice as many
    samples of the largest operation.
    """
    rng = np.random.default_rng([seed, 4])
    ops = []
    for index, depth in enumerate(EVAL_DEPTHS):
        net_path = workdir / f"net-{index}.json"
        spline_path = workdir / f"spline-{index}.json"
        csv_path = workdir / f"eval-{index}.csv"
        net_path.write_text(json.dumps(rs.network_to_obj(sawtooth(depth, rng))), encoding="utf-8")
        start = -float(rng.uniform(0.1, 0.3))
        stop = 1.0 + float(rng.uniform(0.1, 0.3))

        def check_spline(result, full, depth=depth, spline_path=spline_path):
            code, _ = result
            if code != 0:
                return [f"to-spline exited {code}"]
            obj = json.loads(spline_path.read_text(encoding="utf-8"))
            spline = rs.CplSpline(obj["q1"], obj["q0"], obj["knots"], obj["coeffs"])
            return sawtooth_problems(depth, spline)

        def check_eval(result, full, depth=depth, csv_path=csv_path, start=start, stop=stop):
            code, _ = result
            if code != 0:
                return [f"eval exited {code}"]
            return csv_problems(csv_path, start, stop, depth)

        def check_verify(result, full):
            code, text = result
            return [] if code == 0 and "max relative error" in text else [f"verify exited {code}"]

        eval_argv = [
            "eval", str(spline_path), "--from", repr(start), "--to", repr(stop),
            "--samples", str(EVAL_SAMPLES), "-o", str(csv_path),
        ]
        name = f"L{depth}-{index}"
        ops += [
            Op(
                f"to-spline-{name}",
                lambda a=["to-spline", str(net_path), "-o", str(spline_path)]: run_cli(a),
                check_spline,
            ),
            Op(f"eval-{name}", lambda a=eval_argv: run_cli(a), check_eval, depth == 10),
            Op(
                f"verify-{name}",
                lambda a=["verify", str(net_path), str(spline_path)]: run_cli(a),
                check_verify,
            ),
        ]
    return ops


@dataclass(frozen=True)
class Workload:
    """Input builder, and how the workload's time follows the host's speed.

    ``speed_exponents`` (a, b) model time ~ loop^a * dense^b in the probe's
    two slownesses (see worker.py), fitted on the reference host from
    operation times against the probe: interpreted per-knot loops follow
    the loop probe fully (deep-sawtooth), small numpy calls a little less
    (wide-random, synth-bound), and eval-io, which spends most of its time
    in the dense hinge matrix of ``eval_spline``, mostly the dense probe.
    """

    build: Callable[[int, Path], list]
    speed_exponents: tuple


WORKLOADS = {
    "deep-sawtooth": Workload(deep_sawtooth, (1.0, 0.0)),
    "wide-random": Workload(wide_random, (0.75, 0.0)),
    "synth-bound": Workload(synth_bound, (0.8, 0.0)),
    "eval-io": Workload(eval_io, (0.3, 0.7)),
}
