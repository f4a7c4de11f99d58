"""Forward evaluation and grid comparison."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relusplines as rs

from helpers import (
    net_max_knots,
    net_nine_knots,
    overflow_network,
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
        grid = rs.probe_grid(np.array([0.0, 1.0]))
        assert grid.tolist() == [-2.0, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0]

    def test_knotless(self):
        assert rs.probe_grid(np.array([])).tolist() == [-2.0, 0.0, 2.0]

    def test_count_for_uniform_knots(self):
        # 9 knots, 3 points in each of 8 intervals, 2 flanks
        grid = rs.probe_grid(np.arange(1.0, 10.0))
        assert grid.shape[0] == 35

    def test_validation(self):
        with pytest.raises(ValueError, match="^knots must be strictly increasing$"):
            rs.probe_grid([1.0, 0.0])
        # a non-finite grid point cannot decide equality anywhere
        for knots in ([0.0, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="^knots contains non-finite entries$"):
                rs.probe_grid(knots)

    def test_knots_must_be_one_dimensional(self):
        for knots in ([[0.0, 1.0]], np.zeros((2, 2)), 0.5):
            with pytest.raises(rs.DimensionMismatchError, match="^knots must be 1-dimensional"):
                rs.probe_grid(knots)

    def test_decides_piecewise_linear_equality(self):
        # agreeing on the grid forces equality everywhere for shared knots
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_canonical_spline(rng, max_knots=6)
            grid = rs.probe_grid(s.knots)
            net = rs.spline_to_shallow(s)
            dense = np.linspace(grid[0] - 1.0, grid[-1] + 1.0, 400)
            if np.max(np.abs(rs.eval_network(net, grid) - rs.eval_spline(s, grid))) == 0.0:
                assert np.max(np.abs(rs.eval_network(net, dense) - rs.eval_spline(s, dense))) < 1e-10


class TestEquivalenceError:
    def test_zero_for_equal_pair(self):
        s = rs.dnn_to_spline(net_max_knots())
        grid = rs.probe_grid(s.knots)
        assert rs.equivalence_error(net_max_knots(), s, grid) < 1e-12

    def test_detects_shifted_intercept(self):
        s = rs.dnn_to_spline(net_max_knots())
        shifted = rs.CplSpline(s.q1, s.q0 + 1.0, s.knots, s.coeffs)
        grid = rs.probe_grid(s.knots)
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

    @pytest.mark.parametrize("kind", ["coeff_matrix", "q1s", "q0s"])
    def test_overflowing_network_fails_loudly(self, kind):
        zero = rs.CplSpline(0.0, 0.0, [], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^network evaluation contains non-finite"):
                rs.equivalence_error(overflow_network(kind), zero, [-1.0, 0.0, 1.0])
            # a scalar point too, one where the output overflows
            point = -1.0 if kind == "q1s" else 1.0
            with pytest.raises(ValueError, match="^network evaluation contains non-finite"):
                rs.equivalence_error(overflow_network(kind), zero, point)

    def test_overflowing_spline_fails_loudly(self):
        # the hinge sum 1e308 t + 1e308 relu(t) is 2e308 at t = 1
        s = rs.CplSpline(1e308, 0.0, [0.0], [1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^spline evaluation contains non-finite"):
                rs.equivalence_error(net_max_knots(), s, [-1.0, 0.0, 1.0])

    def test_scalar_point(self):
        s = rs.dnn_to_spline(net_max_knots())
        assert rs.equivalence_error(net_max_knots(), s, 0.0) == 0.0
        shifted = rs.CplSpline(s.q1, s.q0 + 1.0, s.knots, s.coeffs)
        assert rs.equivalence_error(net_max_knots(), shifted, 0.0) == pytest.approx(1.0 / 1.2)


def normal_network(rng: np.random.Generator) -> rs.ReluNetwork:
    """Depth 2-5, hidden widths 1-8, all parameters standard normal."""
    depth = int(rng.integers(2, 6))
    widths = [1] + [int(rng.integers(1, 9)) for _ in range(depth - 1)] + [1]
    layers = [rs.Layer(rng.normal(size=(widths[1], 1)), rng.normal(size=widths[1]))]
    for i in range(2, depth + 1):
        shape = (widths[i], widths[i - 1])
        layers.append(rs.Layer(rng.normal(size=shape), rng.normal(size=widths[i]),
                               rng.normal(size=widths[i])))
    return rs.ReluNetwork(tuple(layers))


def wide_range_network(rng: np.random.Generator) -> rs.ReluNetwork:
    """2-6 hidden layers of widths 1-8, each parameter normal x 10^U(-3, 3)."""
    hidden = int(rng.integers(2, 7))
    widths = [1] + [int(rng.integers(1, 9)) for _ in range(hidden)] + [1]

    def draw(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)

    layers = [rs.Layer(draw(widths[1], 1), draw(widths[1]))]
    for i in range(2, hidden + 2):
        layers.append(rs.Layer(draw(widths[i], widths[i - 1]), draw(widths[i]), draw(widths[i])))
    return rs.ReluNetwork(tuple(layers))


class TestCertifiedGrid:
    def test_random_networks_agree_with_their_conversion(self):
        # within the round bound, from the converted knots and from none:
        # the certified grid then holds every knot of the conversion
        rng = np.random.default_rng(17)
        for _ in range(200):
            net = normal_network(rng)
            spline = rs.dnn_to_spline(net)
            hidden = net.depth - 1
            grid, rounds = rs.certified_grid(net, rs.probe_grid(spline.knots))
            assert rounds <= hidden
            assert rs.equivalence_error(net, spline, grid) <= 1e-11
            grid, rounds = rs.certified_grid(net, [-1.0, 0.0, 1.0])
            assert rounds <= hidden
            assert rs.equivalence_error(net, spline, grid) <= 1e-11
            if spline.n_knots:
                nearest = np.min(np.abs(spline.knots[:, None] - grid[None, :]), axis=1)
                assert np.max(nearest) <= 1e-9

    def test_deleted_knot_is_caught(self):
        # a spline missing one knot of the conversion fails on the grid
        # certified from its own knots alone
        rng = np.random.default_rng(23)
        planted = 0
        for _ in range(200):
            net = normal_network(rng)
            spline = rs.dnn_to_spline(net)
            if spline.n_knots == 0:
                continue
            k = int(rng.integers(spline.n_knots))
            bad = rs.CplSpline(spline.q1, spline.q0, np.delete(spline.knots, k),
                               np.delete(spline.coeffs, k))
            grid, _ = rs.certified_grid(net, rs.probe_grid(bad.knots))
            assert rs.equivalence_error(net, bad, grid) > 1e-8
            planted += 1
        assert planted > 150

    def test_sawtooth_from_no_knots(self):
        # each round settles one more of the eight hidden layers
        depth = 8
        grid, rounds = rs.certified_grid(sawtooth_network(depth), [-1.0, 0.0, 1.0])
        assert rounds == depth
        assert np.isin(np.arange(2**depth + 1) / 2**depth, grid).all()
        np.testing.assert_array_equal(grid[[0, -1]], [-1.0, 2.0])

    def test_fixtures_need_no_round(self):
        for net in (net_max_knots(), net_nine_knots()):
            spline = rs.dnn_to_spline(net)
            grid, rounds = rs.certified_grid(net, rs.probe_grid(spline.knots))
            assert rounds == 0 and grid.tolist() == rs.probe_grid(spline.knots).tolist()

    def test_width_zero_hidden_layer(self):
        net = rs.spline_to_shallow(rs.CplSpline(2.0, -1.0, [], []))
        assert net.widths == (1, 0, 1)
        grid, rounds = rs.certified_grid(net, [1.0, -1.0])
        assert (grid.tolist(), rounds) == ([-1.0, 1.0], 0)
        deep = rs.ReluNetwork((
            rs.Layer([[1.0]], [0.0]),
            rs.Layer(np.zeros((0, 1)), [], np.zeros(0)),
            rs.Layer(np.zeros((1, 0)), [0.5], [3.0]),
        ))
        grid, rounds = rs.certified_grid(deep, [-1.0, 1.0])
        assert (grid.tolist(), rounds) == ([-1.0, 0.0, 1.0], 1)

    @pytest.mark.parametrize("sign,wrong", [
        (1.0, rs.CplSpline(1.0, 0.0, [2.0], [-1.0])),
        (-1.0, rs.CplSpline(0.0, 2.0, [-2.0], [-1.0])),
    ])
    def test_crossing_at_a_flank_point(self, sign, wrong):
        # relu(t) - relu(t - 2) or its mirror image: the unit that vanishes
        # at the outer grid point bends there, so a point beyond it joins;
        # the spline that drops that hinge agrees on the old grid only
        net = rs.ReluNetwork.shallow([sign, sign], [0.0, -2.0], [1.0, -1.0])
        points = sign * np.array([0.0, 2.0, 4.0])
        grid, rounds = rs.certified_grid(net, points)
        assert rounds == 1
        assert grid.tolist() == sorted((sign * np.array([-2.0, 0.0, 2.0, 4.0])).tolist())
        assert rs.equivalence_error(net, wrong, points) == 0.0
        assert rs.equivalence_error(net, wrong, grid) > 0.5

    def test_crossing_beyond_the_grid(self):
        # relu(t - 5) on [0, 1]: the crossing 4 past the grid joins, and a
        # point 4 past the crossing
        net = rs.ReluNetwork.shallow([1.0], [-5.0], [1.0])
        grid, rounds = rs.certified_grid(net, [0.0, 1.0])
        assert (grid.tolist(), rounds) == ([0.0, 1.0, 5.0, 9.0], 1)

    def test_crossings_within_merge_tol_are_grid_points(self):
        # relu(1e4 t) is 5e-9 at 5e-13, beyond the zero band there: its
        # crossing at 0 is within merge_tol (1e-12) of that point, and is
        # that point; 2e-12 away it joins the grid
        net = rs.ReluNetwork.shallow([1e4], [0.0], [1.0])
        grid, rounds = rs.certified_grid(net, [-1.0, 5e-13, 1.0])
        assert (grid.tolist(), rounds) == ([-1.0, 5e-13, 1.0], 0)
        grid, rounds = rs.certified_grid(net, [-1.0, 2e-12, 1.0])
        assert rounds == 1 and grid[1] == pytest.approx(0.0, abs=1e-15)
        # two crossings 1e-13 apart are one point
        net = rs.ReluNetwork.shallow([1.0, 1.0], [-0.5, -0.5 - 1e-13], [1.0, 1.0])
        grid, rounds = rs.certified_grid(net, [0.0, 1.0])
        assert (grid.tolist(), rounds) == ([0.0, 0.5, 1.0], 1)

    def test_two_crossings_chained_into_a_grid_point_are_that_point(self):
        # steep units crossing 0.9e-12 and 1.8e-12 past the grid point 0,
        # outside the band there: the second is more than merge_tol from 0,
        # but within merge_tol of the first
        net = rs.ReluNetwork.shallow([1e4, 1e4], [-0.9e-8, -1.8e-8], [1.0, 1.0])
        grid, rounds = rs.certified_grid(net, [-1.0, 0.0, 1.0])
        assert (grid.tolist(), rounds) == ([-1.0, 0.0, 1.0], 0)

    def test_merged_crossing_leaves_its_interval_to_the_layers_above(self):
        # relu(relu(-t) - 1) bends at -1.  On the grid {k - 2, k, k + 2},
        # k = 5e-13, unit relu(1e4 t) changes sign in [k - 2, k] at 0, which
        # merges into k; layer 2 still changes sign there and adds -1, so
        # the spline with its one knot at k fails
        net = rs.ReluNetwork((
            rs.Layer([[1e4], [-1.0]], [0.0, 0.0]),
            rs.Layer([[0.0, 1.0]], [-1.0], [0.0]),
            rs.Layer([[1.0]], [0.0], [0.0]),
        ))
        k = 5e-13
        wrong = rs.CplSpline(-0.5, 0.5 * k, [k], [0.5])
        grid, rounds = rs.certified_grid(net, rs.probe_grid(wrong.knots))
        assert rounds == 1 and grid.size == 4
        assert grid[1] == pytest.approx(-1.0, abs=1e-12)
        assert rs.equivalence_error(net, wrong, rs.probe_grid(wrong.knots)) < 1e-12
        assert rs.equivalence_error(net, wrong, grid) > 0.4

    @pytest.mark.parametrize("index", [113, 274, 465, 615])
    def test_wide_weights_settle_within_the_bound(self, index):
        # each of these once took a round past the bound from no knots,
        # because a crossing came out short: interpolated over a wide bracket
        # (274) or from its farther end (465), polished by plain regula falsi
        # across a bend (615), or pushed by a unit inside the band that
        # passed nothing on (113)
        rng = np.random.default_rng(9)
        for _ in range(index + 1):
            net = wide_range_network(rng)
        grid, rounds = rs.certified_grid(net, [-1.0, 0.0, 1.0])
        assert rounds <= net.depth - 1

    @pytest.mark.xfail(raises=ValueError, strict=True,
                       reason="rounding noise beyond the band moves a crossing past merge_tol")
    @pytest.mark.parametrize("seed,index,start", [
        (10, 898, [-1.0, 0.0, 1.0]),
        (9, 615, rs.probe_grid([])),
        (10, 898, rs.probe_grid([])),
    ])
    def test_wide_weights_past_the_bound(self, seed, index, start):
        # known to take a round past the bound: a unit's value is rounding
        # noise larger than its band, so its crossing lands ulps from where
        # the round before put it; a fix shows up as XPASS
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            net = wide_range_network(rng)
        grid, rounds = rs.certified_grid(net, start)
        assert rounds <= net.depth - 1

    def test_a_round_past_the_bound_raises(self, monkeypatch):
        calls = []

        def endless(net, grid, tol):
            calls.append(grid.size)
            return np.array([grid[-1] + 1.0])

        monkeypatch.setattr(rs.evaluate, "_crossings", endless)
        with pytest.raises(ValueError, match="^crossings still found after 3 rounds"):
            rs.certified_grid(sawtooth_network(3), [0.0, 1.0])
        assert calls == [2, 3, 4, 5]

    @pytest.mark.parametrize("kind,message", [
        ("coeff_matrix", "network output"),
        ("q1s", "network output"),
        ("q0s", "network output"),
        # the hinge at -1e309 lies beyond every double, so its crossing does
        ("bundle knots", "crossing set"),
    ])
    def test_overflow_fails_loudly(self, kind, message):
        # every layer is finite; the pass overflows on its way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message} contains non-finite entries$"):
                rs.certified_grid(overflow_network(kind), [-1.0, 0.0, 1.0])

    def test_crossing_past_every_double_fails_loudly(self):
        # the right tail crosses near 1e310, which overflows to +inf; the
        # certificate used to return it as a grid point
        net = rs.ReluNetwork.shallow([1.0000001e-10], [-1e300], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^crossing set contains non-finite entries$"):
                rs.certified_grid(net, [-1.0, 0.0, 1.0])

    def test_overflowing_hidden_value_fails_loudly(self):
        # the second hidden layer reaches 1e400 at t = 1
        net = rs.ReluNetwork((
            rs.Layer([[1e200]], [0.0]),
            rs.Layer([[1e200]], [0.0], [0.0]),
            rs.Layer([[1.0]], [0.0], [0.0]),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^hidden layer contains non-finite entries$"):
                rs.certified_grid(net, [-1.0, 0.0, 1.0])

    def test_points_are_checked(self):
        net = net_max_knots()
        with pytest.raises(ValueError, match="at least two distinct points"):
            rs.certified_grid(net, [1.0, 1.0])
        with pytest.raises(ValueError, match="^evaluation points contains non-finite entries$"):
            rs.certified_grid(net, [0.0, np.nan])
        with pytest.raises(rs.DimensionMismatchError, match="^evaluation points must be"):
            rs.certified_grid(net, np.zeros((2, 2)))
