"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Each test prints its verdict before asserting, so a plain run (``pytest -s
tests/test_acceptance.py``) reads as a checklist.  Tolerances are fixed
here, not imported, so a library change that drifts past them fails loudly.
"""

import time
import warnings

import numpy as np
import pytest

import relusplines as rs

from helpers import (
    FOURTEEN_KNOTS,
    MAX15_LEVEL2,
    NINE_A2,
    NINE_B2,
    NINE_KNOTS,
    THREE_EXTRA_KNOT,
    THREE_SPLINE_COEFFS,
    max15_hierarchy,
    net_max_knots,
    random_canonical_spline,
    random_network,
    random_three_level,
    random_two_level,
)


def report(number: int, description: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def timed(fn, repeats: int = 3):
    """Best wall-clock time of a few runs, in seconds, plus the result."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def active_pairs(spline: rs.CplSpline, tol=rs.DEFAULT_TOL):
    return rs.active_knots(spline, tol)


def matches_prescribed(spline, prescribed, tol=1e-9) -> bool:
    xs = np.array(sorted(x for x, _ in active_pairs(spline)))
    wanted = np.sort(np.asarray(prescribed, dtype=float))
    return xs.size == wanted.size and bool(np.all(np.abs(xs - wanted) <= tol))


class TestAcceptance:
    def test_01_reference_fifteen_knot_conversion(self):
        net = net_max_knots()
        rs.dnn_to_spline(net)  # warm up
        spline, elapsed = timed(lambda: rs.dnn_to_spline(net))
        pairs = active_pairs(spline)
        expected = {
            1.0: -3.0, 2.0: -2.0, 3.0: -4.5,
            0.5: 1.0, 1.5: 1.0, 2.5: 1.0, 3.25: 2.0,
            0.6: 0.5, 1.4: 0.5, 2.6: 0.5, 3.2: 1.0,
            0.4: 0.5, 1.6: 0.5, 32.0 / 15.0: 1.5, 4.3: 1.0,
        }
        ok = len(pairs) == 15
        for x, coeff in pairs:
            nearest = min(expected, key=lambda k: abs(k - x))
            ok = ok and abs(x - nearest) <= 1e-9 and abs(coeff - expected[nearest]) <= 1e-9
        ok = ok and elapsed < 10e-3
        report(1, "fifteen-knot conversion matches the frozen table", ok,
               f"{elapsed * 1e3:.2f} ms")

    def test_02_three_hidden_pipeline(self):
        h = rs.hierarchy_from_flat(FOURTEEN_KNOTS, 2, 2, 2)
        params = dict(eps=np.array([1.0, -1.0]), a4=np.array([-1.0, 1.0]))

        def pipeline():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return rs.dnn_to_spline(rs.synth_three_hidden(h, **params))

        pipeline()  # warm up
        spline, elapsed = timed(pipeline)
        wanted_knots = np.sort(np.append(FOURTEEN_KNOTS, THREE_EXTRA_KNOT))
        ok = (
            abs(spline.q1 - -1.0) <= 1e-9
            and abs(spline.q0 - 2.0) <= 1e-9
            and spline.n_knots == 15
            and bool(np.all(np.abs(spline.knots - wanted_knots) <= 1e-9))
            and bool(np.all(np.abs(spline.coeffs - THREE_SPLINE_COEFFS) <= 1e-9))
            and elapsed < 50e-3
        )
        report(2, "three-hidden synthesis reproduces the fifteen-coefficient spline",
               ok, f"{elapsed * 1e3:.2f} ms")

    def test_03_no_source_synthesis(self):
        net = rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2, seeds=np.array([-1.0, 1.0]))
        ok = (
            bool(np.array_equal(net.layers[1].A, NINE_A2))
            and bool(np.array_equal(net.layers[1].b, NINE_B2))
            and bool(np.array_equal(net.layers[0].A, np.ones((3, 1))))
            and bool(np.array_equal(net.layers[0].b, -np.array([1.0, 4.0, 7.0])))
            and matches_prescribed(rs.dnn_to_spline(net), NINE_KNOTS)
        )
        report(3, "no-source synthesis hits the exact reference weights and knots", ok)

    def test_04_and_05_equivalence_and_bound_on_random_networks(self):
        rng = np.random.default_rng(2026)
        worst = 0.0
        bound_ok = True
        start = time.perf_counter()
        for _ in range(1000):
            net = random_network(rng)
            spline = rs.dnn_to_spline(net)
            grid = rs.probe_grid(spline.knots, margin=5.0, per_interval=3)
            worst = max(worst, rs.equivalence_error(net, spline, grid))
            bound_ok = bound_ok and len(active_pairs(spline)) <= rs.knot_bound(net.widths)
        elapsed = time.perf_counter() - start
        report(4, "1000 random networks agree with their splines on the probe grid",
               worst <= 1e-8 and elapsed < 10.0,
               f"max error {worst:.2e}, {elapsed:.2f} s")
        report(5, "knot count stays within the architecture bound in all 1000 trials",
               bound_ok)

    def test_06_sigma_composition_oracle(self):
        rng = np.random.default_rng(2027)
        worst = 0.0
        for _ in range(500):
            s = random_canonical_spline(rng)
            out = rs.sigma_compose(s)
            grid = rs.probe_grid(
                np.unique(np.concatenate((s.knots, out.knots))), margin=2.0, per_interval=3
            )
            worst = max(
                worst,
                float(np.max(np.abs(rs.eval_spline(out, grid)
                                    - np.maximum(0.0, rs.eval_spline(s, grid))))),
            )
        report(6, "sigma composition equals pointwise max(0, s) on 500 random splines",
               worst <= 1e-10, f"max deviation {worst:.2e}")

    def test_07_normalization_properties(self):
        rng = np.random.default_rng(2028)
        checked = 0
        ok = True
        while checked < 500:
            net = random_network(rng)
            try:
                normalized = rs.positive_scale_normalize(net)
            except rs.DegenerateFirstLayerError:
                continue
            checked += 1
            grid = rs.probe_grid(rs.dnn_to_spline(net).knots, margin=5.0, per_interval=3)
            f = rs.eval_network(net, grid)
            g = rs.eval_network(normalized, grid)
            ok = ok and bool(np.all(np.abs(f - g) <= 1e-9 * (1.0 + np.abs(f))))
            for layer in normalized.layers[1:-1]:
                ok = ok and bool(np.all(np.isin(layer.c, (-1.0, 0.0, 1.0))))
            again = rs.positive_scale_normalize(normalized)
            for la, lb in zip(again.layers, normalized.layers):
                ok = ok and bool(np.array_equal(la.A, lb.A))
                ok = ok and bool(np.array_equal(la.b, lb.b))
                if la.c is not None:
                    ok = ok and bool(np.array_equal(la.c, lb.c))
        report(7, "normalization preserves 500 random networks and is idempotent", ok)

    def test_08_two_hidden_synthesis_property(self):
        rng = np.random.default_rng(2029)
        ok = True
        for _ in range(100):
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(2, 4))
            h = random_two_level(rng, n1, n2)
            spline = rs.dnn_to_spline(rs.synth_two_hidden(h))
            ok = ok and matches_prescribed(spline, rs.prescribed_knots(h))
        report(8, "100 random two-level hierarchies come back with the exact knot set", ok)

    def test_09_three_hidden_synthesis_property(self):
        rng = np.random.default_rng(2030)
        ok = True
        for _ in range(50):
            h = random_three_level(rng, 2, 2, 3)
            net = rs.synth_three_hidden(h)
            spline = rs.dnn_to_spline(net)
            wanted = rs.prescribed_knots(h)
            ok = ok and len(wanted) == 17
            xs = np.array(sorted(x for x, _ in active_pairs(spline)))
            # emergent knots beyond the prescribed 17 are allowed here
            ok = ok and all(np.min(np.abs(xs - w)) <= 1e-9 for w in wanted)
        report(9, "50 random three-level hierarchies keep all 17 prescribed knots", ok)

    def test_10_redundancy_relation(self):
        h = max15_hierarchy()
        residuals = [abs(rs.redundancy_residual(h, {1, 2}, j)) for j in range(3)]
        perturbed_level2 = MAX15_LEVEL2.copy()
        perturbed_level2[0, 3] = 3.4
        perturbed = rs.KnotHierarchy(h.level1, perturbed_level2)
        off = abs(rs.redundancy_residual(perturbed, {1, 2}, 0))
        ok = max(residuals) <= 1e-9 and off > 1e-3
        report(10, "redundancy residual vanishes on the reference hierarchy only", ok,
               f"max {max(residuals):.1e}, perturbed {off:.1e}")

    def test_11_round_trips(self):
        rng = np.random.default_rng(2031)
        ok = True
        for _ in range(500):
            s = random_canonical_spline(rng)
            back = rs.dnn_to_spline(rs.spline_to_shallow(s))
            ok = ok and back.q1 == s.q1 and back.q0 == s.q0
            ok = ok and bool(np.array_equal(back.knots, s.knots))
            ok = ok and bool(np.array_equal(back.coeffs, s.coeffs))

        from pathlib import Path
        fixtures = Path(__file__).resolve().parent / "fixtures"
        for path in sorted(fixtures.glob("*.json")):
            obj = rs.load_json(path)
            if "widths" in obj:
                ok = ok and rs.network_to_obj(rs.network_from_obj(obj)) == obj
            elif "q1" in obj:
                ok = ok and rs.spline_to_obj(rs.spline_from_obj(obj)) == obj
            elif "level1" in obj:
                ok = ok and rs.hierarchy_to_obj(rs.hierarchy_from_obj(obj)) == obj
        report(11, "spline round trips are bit-exact and fixture files re-serialize verbatim",
               ok)
