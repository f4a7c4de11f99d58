"""Forward evaluation and grid comparison."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relusplines as rs

from helpers import (
    net_max_knots,
    net_nine_knots,
    random_canonical_spline,
    sawtooth_closed_form,
    sawtooth_network,
)


@st.composite
def raw_splines(draw):
    """Unsorted knots, often repeated (a few shared values), some zero coefficients."""
    knot = st.one_of(st.sampled_from([-3.0, -0.5, 0.0, 1.25, 4.0]), st.floats(-10, 10))
    knots = draw(st.lists(knot, max_size=12))
    coeff = st.one_of(st.just(0.0), st.floats(-10, 10))
    coeffs = draw(st.lists(coeff, min_size=len(knots), max_size=len(knots)))
    return rs.CplSpline(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)), knots, coeffs)


class TestEvalNetwork:
    def test_reference_value(self):
        assert rs.eval_network(net_max_knots(), 0.0) == pytest.approx(0.2, abs=1e-12)

    def test_no_source_network_vanishes_at_knot(self):
        assert rs.eval_network(net_nine_knots(), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_and_array_agree(self):
        net = net_max_knots()
        ts = np.linspace(-2, 5, 23)
        batch = rs.eval_network(net, ts)
        singles = np.array([rs.eval_network(net, float(t)) for t in ts])
        np.testing.assert_array_equal(batch, singles)

    def test_rejects_non_finite_points(self):
        with pytest.raises(ValueError):
            rs.eval_network(net_max_knots(), np.inf)

    def test_width_zero_hidden_layer(self):
        net = rs.spline_to_shallow(rs.CplSpline(2.0, -1.0, [], []))
        assert net.widths == (1, 0, 1)
        assert rs.eval_network(net, 3.0) == pytest.approx(5.0)


class TestEvalSpline:
    def test_single_hinge(self):
        s = rs.CplSpline(0.0, 0.0, [0.0], [1.0])
        assert rs.eval_spline(s, -1.0) == 0.0
        assert rs.eval_spline(s, 2.0) == 2.0

    def test_knotless_is_affine(self):
        s = rs.CplSpline(2.0, 1.0, [], [])
        np.testing.assert_allclose(rs.eval_spline(s, np.array([-1.0, 0.0, 3.0])), [-1.0, 1.0, 7.0])

    @given(st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_formula(self, t):
        s = rs.CplSpline(0.5, -1.0, [-1.0, 0.5, 2.0], [1.0, -2.0, 0.25])
        direct = 0.5 * t - 1.0 + sum(
            c * max(t - x, 0.0) for x, c in zip(s.knots, s.coeffs)
        )
        assert rs.eval_spline(s, t) == pytest.approx(direct, rel=1e-14, abs=1e-14)

    @given(raw_splines(), st.lists(st.floats(-20, 20), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_raw_spline_matches_hinge_sum(self, s, extra):
        ts = np.concatenate((s.knots, extra, [0.0]))
        values = rs.eval_spline(s, ts)
        for t, value in zip(ts, values):
            terms = [c * max(t - x, 0.0) for x, c in zip(s.knots, s.coeffs)]
            direct = s.q1 * t + s.q0 + math.fsum(terms)
            scale = 1.0 + sum(abs(term) for term in terms) + abs(s.q1 * t) + abs(s.q0)
            assert abs(value - direct) <= 1e-12 * scale
        np.testing.assert_array_equal(values, [rs.eval_spline(s, float(t)) for t in ts])


def random_bundle(rng: np.random.Generator, width: int, n_knots: int) -> rs.SplineBundle:
    """Bundle with some zero, some exactly cancelling and some tiny coefficients."""
    knots = np.sort(rng.choice(np.linspace(-8.0, 8.0, 161), n_knots, replace=False))
    coeffs = rng.uniform(-3, 3, (width, n_knots))
    coeffs[rng.uniform(size=coeffs.shape) < 0.2] = 0.0
    coeffs[rng.uniform(size=coeffs.shape) < 0.1] = 1e-12
    if n_knots >= 2:
        coeffs[:, 1] = -coeffs[:, 0]
    return rs.SplineBundle(knots, rng.uniform(-2, 2, width), rng.uniform(-2, 2, width), coeffs)


class TestEvalBundle:
    def test_rows_equal_eval_spline_bit_for_bit(self):
        rng = np.random.default_rng(113)
        for _ in range(200):
            bundle = random_bundle(rng, int(rng.integers(1, 7)), int(rng.integers(0, 25)))
            # knots themselves, points between and on both sides, far past the last knot
            ts = np.concatenate(
                (bundle.knots, rng.uniform(-12, 12, 30), [-1e6, 1e6, 0.0])
            )
            values = rs.eval_bundle(bundle, ts)
            assert values.shape == (bundle.width, ts.shape[0])
            for r in range(bundle.width):
                expected = rs.eval_spline(bundle.member(r), ts)
                assert values[r].tobytes() == expected.tobytes()

    def test_knotless_bundle_is_affine_per_member(self):
        bundle = rs.SplineBundle([], [1.0, -2.0], [0.5, 3.0], np.empty((2, 0)))
        np.testing.assert_array_equal(
            rs.eval_bundle(bundle, [-1.0, 2.0]), [[-0.5, 2.5], [5.0, -1.0]]
        )

    def test_scalar_point_gives_one_value_per_member(self):
        bundle = rs.SplineBundle([0.0], [0.0, 1.0], [0.0, 0.0], [[1.0], [-1.0]])
        np.testing.assert_array_equal(rs.eval_bundle(bundle, 2.0), [2.0, 0.0])

    def test_rejects_non_finite_points(self):
        bundle = rs.SplineBundle([0.0], [0.0], [0.0], [[1.0]])
        with pytest.raises(ValueError):
            rs.eval_bundle(bundle, [0.0, np.nan])


class TestEvalSplineAtScale:
    def test_sawtooth_memory_linear_and_values_exact(self):
        # depth 14: 16385 knots; a points x knots temporary would take 262 MB
        depth = 14
        count = 2**depth
        spline = rs.dnn_to_spline(sawtooth_network(depth))
        assert spline.n_knots == count + 1
        picks = np.arange(500) * 31
        ts = np.concatenate(
            (np.linspace(-0.25, 1.25, 1000), picks / count, (picks + 7.5) / count)
        )
        tracemalloc.start()
        try:
            values = rs.eval_spline(spline, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        np.testing.assert_allclose(values, sawtooth_closed_form(depth, ts), rtol=0, atol=1e-12)


class TestProbeGrid:
    def test_two_knots(self):
        grid = rs.probe_grid(np.array([0.0, 1.0]), margin=1.0, per_interval=1)
        assert grid.tolist() == [-1.0, 0.0, 0.5, 1.0, 2.0]

    def test_knotless(self):
        assert rs.probe_grid(np.array([]), margin=2.0).tolist() == [-2.0, 0.0, 2.0]

    def test_count_for_uniform_knots(self):
        grid = rs.probe_grid(np.arange(1.0, 10.0), margin=1.0, per_interval=1)
        assert grid.shape[0] == 19

    def test_validation(self):
        with pytest.raises(ValueError):
            rs.probe_grid([0.0, 1.0], margin=0.0)
        with pytest.raises(ValueError):
            rs.probe_grid([0.0, 1.0], per_interval=0)
        with pytest.raises(ValueError):
            rs.probe_grid([1.0, 0.0])
        # a non-finite grid point cannot decide equality anywhere
        for knots in ([0.0, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="^knots contain non-finite entries$"):
                rs.probe_grid(knots)
        for margin in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^margin must be positive and finite$"):
                rs.probe_grid([0.0, 1.0], margin=margin)

    def test_decides_piecewise_linear_equality(self):
        # agreeing on the grid forces equality everywhere for shared knots
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_canonical_spline(rng, max_knots=6)
            grid = rs.probe_grid(s.knots, margin=2.0, per_interval=1)
            net = rs.spline_to_shallow(s)
            dense = np.linspace(grid[0] - 1.0, grid[-1] + 1.0, 400)
            if np.max(np.abs(rs.eval_network(net, grid) - rs.eval_spline(s, grid))) == 0.0:
                assert np.max(np.abs(rs.eval_network(net, dense) - rs.eval_spline(s, dense))) < 1e-10


class TestEquivalenceError:
    def test_zero_for_equal_pair(self):
        s = rs.dnn_to_spline(net_max_knots())
        grid = rs.probe_grid(s.knots, margin=5.0, per_interval=3)
        assert rs.equivalence_error(net_max_knots(), s, grid) < 1e-12

    def test_detects_shifted_intercept(self):
        s = rs.dnn_to_spline(net_max_knots())
        shifted = rs.CplSpline(s.q1, s.q0 + 1.0, s.knots, s.coeffs)
        grid = rs.probe_grid(s.knots, margin=5.0, per_interval=3)
        err = rs.equivalence_error(net_max_knots(), shifted, grid)
        f = rs.eval_network(net_max_knots(), grid)
        assert err >= np.min(1.0 / (1.0 + np.abs(f)))

    def test_empty_grid(self):
        s = rs.dnn_to_spline(net_max_knots())
        assert rs.equivalence_error(net_max_knots(), s, np.array([])) == 0.0
