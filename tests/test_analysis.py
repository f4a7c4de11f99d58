"""Knot accounting and closed-form coefficients."""

import numpy as np
import pytest

import relusplines as rs

from helpers import (
    MAX15_COEFFS,
    MAX15_KNOTS,
    max15_hierarchy,
    net_max_knots,
    random_network,
    random_two_level,
)


class TestActiveKnots:
    def test_reference_pairs(self):
        pairs = rs.active_knots(rs.dnn_to_spline(net_max_knots()))
        assert len(pairs) == 15
        np.testing.assert_allclose([x for x, _ in pairs], MAX15_KNOTS, atol=1e-12)
        np.testing.assert_allclose([c for _, c in pairs], MAX15_COEFFS, atol=1e-12)

    def test_filters_inactive(self):
        s = rs.CplSpline(0.0, 0.0, [1.0, 2.0, 3.0], [1.0, 1e-14, -2.0])
        assert rs.active_knots(s) == [(1.0, 1.0), (3.0, -2.0)]

    def test_sorts_by_knot(self):
        s = rs.CplSpline(0.0, 0.0, [3.0, 1.0], [1.0, 2.0])
        assert rs.active_knots(s) == [(1.0, 2.0), (3.0, 1.0)]

    def test_matches_python_sort_on_raw_splines(self):
        # repeated knots, equal pairs and signed zeros: the order of the
        # Python sort of (knot, coefficient) tuples, which keeps ties in place
        def reference(spline, tol=rs.DEFAULT_TOL):
            keep = np.abs(spline.coeffs) > tol.zero_tol
            pairs = sorted(zip(spline.knots[keep], spline.coeffs[keep]))
            return [(float(x), float(c)) for x, c in pairs]

        def signs(pairs):
            return [(np.copysign(1.0, x), np.copysign(1.0, c)) for x, c in pairs]

        rng = np.random.default_rng(97)
        for _ in range(300):
            n = int(rng.integers(0, 25))
            knots = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], n)
            coeffs = rng.choice([-2.0, -1e-11, 0.0, 1.0, 3.0], n)
            spline = rs.CplSpline(0.5, -1.0, knots, coeffs)
            got, expected = rs.active_knots(spline), reference(spline)
            assert got == expected
            assert signs(got) == signs(expected)
            assert all(type(x) is float and type(c) is float for x, c in got)


class TestAuditBound:
    def test_reference_is_tight(self):
        assert rs.audit_bound(net_max_knots()) == rs.BoundReport(15, 15, True)

    def test_random_networks_within_bound(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            report = rs.audit_bound(random_network(rng))
            assert report.ok
            assert report.observed <= report.bound


class TestCoeffsFromKnots:
    def test_reference_table(self):
        level2, level1 = rs.coeffs_from_knots(
            max15_hierarchy(), [1.0, 0.5, 0.5], [1.0, 1.0, -1.0]
        )
        np.testing.assert_allclose(
            level2,
            [[1.0, 1.0, 1.0, 2.0], [0.5, 0.5, 0.5, 1.0], [0.5, 0.5, 1.5, 1.0]],
            atol=1e-12,
        )
        np.testing.assert_allclose(level1, [-3.0, -2.0, -4.5], atol=1e-12)

    def test_matches_synthesized_network(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            h = random_two_level(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            net = rs.synth_two_hidden(h)
            level2, level1 = rs.coeffs_from_knots(
                h, net.layers[2].A[0], net.layers[1].c
            )
            pairs = rs.active_knots(rs.dnn_to_spline(net))
            xs = np.array([x for x, _ in pairs])
            cs = np.array([c for _, c in pairs])

            def coeff_at(x):
                i = int(np.argmin(np.abs(xs - x)))
                assert abs(xs[i] - x) <= 1e-9
                return cs[i]

            for v, x in enumerate(h.level1):
                assert coeff_at(x) == pytest.approx(level1[v], abs=1e-9)
            for j in range(h.n2):
                for v, x in enumerate(h.level2[j]):
                    assert coeff_at(x) == pytest.approx(level2[j, v], abs=1e-9)

    def test_length_validation(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.coeffs_from_knots(max15_hierarchy(), [1.0], [1.0, 1.0, -1.0])

    def test_rows_checked_like_other_input(self):
        # a NaN entry used to come back as NaN coefficients
        h = max15_hierarchy()
        with pytest.raises(ValueError, match="^a3 contains non-finite entries$"):
            rs.coeffs_from_knots(h, [1.0, np.nan, 0.5], [1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="^c_signs contains non-finite entries$"):
            rs.coeffs_from_knots(h, [1.0, 0.5, 0.5], [1.0, np.inf, -1.0])
        with pytest.raises(rs.DimensionMismatchError, match="^a3 must be 1-dimensional"):
            rs.coeffs_from_knots(h, [[1.0, 0.5, 0.5]], [1.0, 1.0, -1.0])
