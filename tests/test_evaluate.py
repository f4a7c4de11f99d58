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
        with pytest.raises(ValueError, match="^evaluation points contains non-finite entries$"):
            rs.eval_network(net_max_knots(), np.inf)

    def test_rejects_points_of_two_dimensions(self):
        message = r"^evaluation points must be 1-dimensional, got shape \(2, 2\)$"
        with pytest.raises(rs.DimensionMismatchError, match=message):
            rs.eval_network(net_max_knots(), np.zeros((2, 2)))

    def test_width_zero_hidden_layer(self):
        net = rs.spline_to_shallow(rs.CplSpline(2.0, -1.0, [], []))
        assert net.widths == (1, 0, 1)
        assert rs.eval_network(net, 3.0) == pytest.approx(5.0)


class TestEvalSpline:
    def test_rejects_points_of_two_dimensions(self):
        s = rs.CplSpline(0.0, 0.0, [0.0], [1.0])
        for points in (np.zeros((2, 2)), [[1.0]], np.zeros((1, 0))):
            with pytest.raises(rs.DimensionMismatchError, match="^evaluation points must be"):
                rs.eval_spline(s, points)

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
            with pytest.raises(ValueError, match="^knots contains non-finite entries$"):
                rs.probe_grid(knots)
        for margin in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^margin must be positive and finite$"):
                rs.probe_grid([0.0, 1.0], margin=margin)

    def test_per_interval_is_an_integer(self):
        # 1.5 used to be read as 1; integer types of any kind are accepted
        with pytest.raises(TypeError):
            rs.probe_grid([0.0, 1.0], per_interval=1.5)
        assert rs.probe_grid([0.0, 1.0], per_interval=np.int64(2)).tolist() == [
            -1.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 2.0
        ]

    def test_knots_must_be_one_dimensional(self):
        for knots in ([[0.0, 1.0]], np.zeros((2, 2)), 0.5):
            with pytest.raises(rs.DimensionMismatchError, match="^knots must be 1-dimensional"):
                rs.probe_grid(knots)

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

    def test_rejects_a_grid_of_two_dimensions(self):
        s = rs.dnn_to_spline(net_max_knots())
        # an empty one too, which used to read as a zero error
        for grid in (rs.probe_grid(s.knots).reshape(-1, 1), np.zeros((0, 2))):
            with pytest.raises(rs.DimensionMismatchError, match="^evaluation points must be"):
                rs.equivalence_error(net_max_knots(), s, grid)

    def test_scalar_point(self):
        s = rs.dnn_to_spline(net_max_knots())
        assert rs.equivalence_error(net_max_knots(), s, 0.0) == 0.0
        shifted = rs.CplSpline(s.q1, s.q0 + 1.0, s.knots, s.coeffs)
        assert rs.equivalence_error(net_max_knots(), shifted, 0.0) == pytest.approx(1.0 / 1.2)
