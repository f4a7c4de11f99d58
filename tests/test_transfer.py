"""Network-to-spline translation in both directions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relusplines as rs

from helpers import (
    MAX15_COEFFS,
    MAX15_KNOTS,
    MAX15_Q0,
    MAX15_Q1,
    NINE_KNOTS,
    THREE_A2,
    THREE_A3,
    THREE_A4,
    THREE_B2,
    THREE_B3,
    THREE_C2,
    THREE_C3,
    THREE_EXTRA_KNOT,
    THREE_SPLINE_COEFFS,
    THREE_SPLINE_Q0,
    THREE_SPLINE_Q1,
    assert_splines_match,
    net_max_knots,
    net_nine_knots,
    piecewise_form,
    random_canonical_spline,
    random_network,
    sawtooth_network,
)


def net_three_hidden() -> rs.ReluNetwork:
    """Depth-4 fixture with unit first layer on knots 9 and 12."""
    return rs.ReluNetwork(
        (
            rs.Layer([[1.0], [1.0]], [-9.0, -12.0]),
            rs.Layer(THREE_A2, THREE_B2, THREE_C2),
            rs.Layer(THREE_A3, THREE_B3, THREE_C3),
            rs.Layer(THREE_A4.reshape(1, 2), [0.0], [0.0]),
        )
    )


class TestShallowToSpline:
    """dnn_to_spline on one-hidden-layer networks."""

    def test_positive_slopes(self):
        s = rs.dnn_to_spline(rs.ReluNetwork.shallow([1.0, 2.0], [0.0, -2.0], [1.0, 1.0]))
        assert s.knots.tolist() == [0.0, 1.0]
        assert s.coeffs.tolist() == [1.0, 2.0]
        assert (s.q1, s.q0) == (0.0, 0.0)

    def test_negative_slope_folds_affine_part(self):
        # relu(-t + 1) = -t + 1 + relu(t - 1)
        s = rs.dnn_to_spline(rs.ReluNetwork.shallow([-1.0], [1.0], [1.0]))
        assert (s.q1, s.q0) == (-1.0, 1.0)
        assert s.knots.tolist() == [1.0]
        assert s.coeffs.tolist() == [1.0]

    def test_flat_unit_shifts_intercept_only(self):
        up = rs.dnn_to_spline(rs.ReluNetwork.shallow([0.0], [2.0], [3.0], c2=0.5))
        assert (up.q1, up.q0, up.n_knots) == (0.5, 6.0, 0)
        down = rs.dnn_to_spline(rs.ReluNetwork.shallow([0.0], [-2.0], [3.0], c2=0.5))
        assert (down.q1, down.q0, down.n_knots) == (0.5, 0.0, 0)

    def test_output_is_canonical(self):
        # two units hinge at the same point and cancel
        s = rs.dnn_to_spline(
            rs.ReluNetwork.shallow([1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], c2=1.0, b2=0.5)
        )
        assert s.n_knots == 0
        assert (s.q1, s.q0) == (1.0, 0.5)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a1, a2, b1 = rng.uniform(-2, 2, (3, n))
            c2, b2 = rng.uniform(-2, 2, 2)
            s = rs.dnn_to_spline(rs.ReluNetwork.shallow(a1, b1, a2, c2, b2))
            ts = np.linspace(-6, 6, 101)
            direct = c2 * ts + b2 + np.maximum(a1 * ts[:, None] + b1, 0.0) @ a2
            np.testing.assert_allclose(rs.eval_spline(s, ts), direct, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.ReluNetwork.shallow([1.0, 2.0], [0.0, 1.0], [1.0])


def hinge_shallow_to_spline(c2, b2, a1, a2, b1, tol=rs.DEFAULT_TOL):
    """Reference: one hinge per unit, then canonicalize, without a network."""
    a1 = np.atleast_1d(np.asarray(a1, dtype=float))
    a2 = np.atleast_1d(np.asarray(a2, dtype=float))
    b1 = np.atleast_1d(np.asarray(b1, dtype=float))
    if not (a1.shape == a2.shape == b1.shape):
        raise rs.DimensionMismatchError("a1, a2, b1 must have equal length")
    for name, arr in (("a1", a1), ("a2", a2), ("b1", b1)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    # a rising unit hinges at -b1/a1 with weight a2 a1; a falling one hinges
    # there with weight -a2 a1 and leaves a2 (a1 t + b1) on the left; a dead
    # one (|a1| <= zero_tol) only adds a2 relu(b1)
    live = np.abs(a1) > tol.zero_tol
    knots = -b1[live] / a1[live]
    coeffs = a2[live] * np.abs(a1[live])
    q1 = float(c2) - a2 @ np.where(live, np.maximum(-a1, 0.0), 0.0)
    q0 = float(b2) + a2 @ np.where(live, np.where(a1 < 0, b1, 0.0), np.maximum(b1, 0.0))
    return rs.canonicalize(rs.CplSpline(q1, q0, knots, coeffs), tol)


class TestShallowToSplineMatchesHinges:
    """dnn_to_spline on one-hidden-layer networks against the hinge reference."""

    def test_random_units_bit_for_bit(self):
        # dead units (exactly flat or within zero_tol), negative slopes, hinges
        # repeated or within merge_tol of each other, cancelling output weights
        rng = np.random.default_rng(151)
        tol = rs.DEFAULT_TOL
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            hinges = rng.choice([-1.5, 0.0, 0.25, 2.0], n) + rng.integers(0, 4, n) * 0.4 * tol.merge_tol
            a1 = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2, 2, n)
            a1[rng.uniform(size=n) < 0.15] = 0.0
            a1[rng.uniform(size=n) < 0.1] = 0.5 * tol.zero_tol
            b1 = -a1 * hinges + (a1 == 0) * rng.uniform(-1, 1, n)
            a2 = rng.uniform(-2, 2, n) * 10.0 ** rng.integers(-11, 2, n)
            if n >= 2 and rng.uniform() < 0.3:
                a1[1], b1[1], a2[1] = a1[0], b1[0], -a2[0]
            c2, b2 = rng.uniform(-2, 2, 2)
            got = rs.dnn_to_spline(rs.ReluNetwork.shallow(a1, b1, a2, c2, b2), tol)
            want = hinge_shallow_to_spline(c2, b2, a1, a2, b1, tol)
            assert got.knots.tobytes() == want.knots.tobytes()
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert (got.q1, got.q0) == (want.q1, want.q0)

    def test_scalar_units(self):
        got = rs.dnn_to_spline(rs.ReluNetwork.shallow(-2.0, 1.0, 3.0, 0.5, -1.0))
        want = hinge_shallow_to_spline(0.5, -1.0, -2.0, 3.0, 1.0)
        assert_splines_match(got, want, tol=0.0)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 0.0, [1.0, 2.0], [1.0], [0.0, 1.0]),
            (0.0, 0.0, [1.0], [1.0, 2.0], [0.0]),
            (0.0, 0.0, [1.0, 2.0], [1.0, 2.0], [0.0]),
            (0.0, 0.0, [np.nan], [1.0], [0.0]),
            (0.0, 0.0, [1.0], [np.inf], [0.0]),
            (0.0, 0.0, [1.0], [1.0], [-np.inf]),
        ],
    )
    def test_same_errors(self, args):
        with pytest.raises(ValueError) as want:
            hinge_shallow_to_spline(*args)
        c2, b2, a1, a2, b1 = args
        with pytest.raises(ValueError) as got:
            rs.dnn_to_spline(rs.ReluNetwork.shallow(a1, b1, a2, c2, b2))
        assert type(got.value) is type(want.value)


class TestSigmaCompose:
    def test_identity_becomes_relu(self):
        out = rs.sigma_compose(rs.CplSpline(1.0, 0.0, [], []))
        assert (out.q1, out.q0) == (0.0, 0.0)
        assert out.knots.tolist() == [0.0]
        assert out.coeffs.tolist() == [1.0]

    def test_negative_identity(self):
        out = rs.sigma_compose(rs.CplSpline(-1.0, 0.0, [], []))
        assert (out.q1, out.q0) == (-1.0, 0.0)
        assert out.knots.tolist() == [0.0]
        assert out.coeffs.tolist() == [1.0]

    def test_nonnegative_input_is_fixed_point(self):
        relu = rs.CplSpline(0.0, 0.0, [0.0], [1.0])
        out = rs.sigma_compose(relu)
        assert_splines_match(out, relu, tol=0.0)

    def test_nonpositive_input_collapses_to_zero(self):
        f = rs.CplSpline(0.0, -1.0, [0.0, 1.0], [1.0, -1.0])
        out = rs.sigma_compose(f)
        assert (out.q1, out.q0, out.n_knots) == (0.0, 0.0, 0)

    def test_single_crossing_in_last_piece(self):
        f = rs.CplSpline(1.0, -2.0, [0.0, 1.0], [-2.0, 2.0])
        out = rs.sigma_compose(f)
        assert (out.q1, out.q0) == (0.0, 0.0)
        assert out.knots.tolist() == [4.0]
        assert out.coeffs.tolist() == [1.0]

    def test_zero_touch_with_flat_left_piece(self):
        # f is 0 until its first knot, then rises; relu changes nothing
        f = rs.CplSpline(0.0, 0.0, [0.0, 1.0], [1.0, -1.0])
        out = rs.sigma_compose(f)
        assert_splines_match(out, f, tol=0.0)

    def test_matches_pointwise_maximum(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            f = random_canonical_spline(rng, max_knots=12)
            out = rs.sigma_compose(f)
            grid = rs.probe_grid(
                np.unique(np.concatenate((f.knots, out.knots))) if f.n_knots + out.n_knots else [],
                margin=3.0,
                per_interval=2,
            )
            target = np.maximum(rs.eval_spline(f, grid), 0.0)
            np.testing.assert_allclose(rs.eval_spline(out, grid), target, atol=1e-10)

    def test_knot_count_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            f = random_canonical_spline(rng, max_knots=10)
            assert rs.sigma_compose(f).n_knots <= 2 * f.n_knots + 1

    def test_requires_sorted_knots(self):
        with pytest.raises(ValueError):
            rs.sigma_compose(rs.CplSpline(0.0, 0.0, [1.0, 0.0], [1.0, 1.0]))


class TestPositiveScaleNormalize:
    """The layer-1 rewrite of positive_scale_normalize, seen through the transfer."""

    def test_function_preserved(self):
        original = net_max_knots()
        rewritten = rs.positive_scale_normalize(original)
        grid = rs.probe_grid(MAX15_KNOTS, margin=3.0, per_interval=2)
        err = np.abs(rs.eval_network(original, grid) - rs.eval_network(rewritten, grid))
        assert np.max(err) < 1e-12
        assert_splines_match(rs.dnn_to_spline(rewritten), rs.dnn_to_spline(original), tol=1e-12)

    def test_idempotent_bit_for_bit(self):
        once = rs.positive_scale_normalize(net_max_knots())
        twice = rs.positive_scale_normalize(once)
        for la, lb in zip(once.layers, twice.layers):
            np.testing.assert_array_equal(la.A, lb.A)
            np.testing.assert_array_equal(la.b, lb.b)
            if la.c is not None:
                np.testing.assert_array_equal(la.c, lb.c)
        assert_splines_match(rs.dnn_to_spline(twice), rs.dnn_to_spline(once), tol=0.0)


def looped_layer_transfer(bundle, A, c, b, tol=rs.DEFAULT_TOL):
    """Reference layer step, member by member and piece by piece."""
    A = np.asarray(A, dtype=float)
    knots = bundle.knots
    n = knots.shape[0]
    zero_tol = tol.zero_tol
    kept = np.zeros((bundle.width, n))
    tails = np.zeros((bundle.width, 2))
    coords, new_columns = list(knots), []
    for j in range(bundle.width):
        mu, eta = piecewise_form(bundle.member(j))
        classes = []
        for v, x in enumerate(knots):
            value = mu[v] * x + eta[v]
            zero = abs(value) <= zero_tol * (1.0 + abs(mu[v] * x))
            classes.append(0 if zero else np.sign(value))
            if classes[v] > 0:
                kept[j, v] = bundle.coeff_matrix[j, v]
            elif classes[v] == 0:
                kept[j, v] = max(mu[v + 1], 0.0) + max(-mu[v], 0.0)
        for v, slope in enumerate(mu):
            if abs(slope) <= zero_tol:
                continue
            left = -np.sign(slope) if v == 0 else classes[v - 1]
            right = np.sign(slope) if v == n else classes[v]
            if left * right == -1:
                coords.append(-eta[v] / slope)
                new_columns.append(A[:, j] * abs(slope))
        q1, q0 = bundle.q1s[j], bundle.q0s[j]
        if abs(q1) <= zero_tol:
            tails[j] = (0.0, max(q0, 0.0))
        elif q1 < 0:
            tails[j] = (q1, q0)
    columns = np.column_stack([A @ kept] + [col[:, None] for col in new_columns])
    is_new = np.arange(len(coords)) >= n
    merged_x, merged_cols = rs.transfer._merge_columns(coords, is_new, columns, tol)
    return rs.SplineBundle(merged_x, c + A @ tails[:, 0], b + A @ tails[:, 1], merged_cols)


class TestLayerTransfer:
    def test_matches_member_by_member_loop(self):
        # integer data puts many members exactly at zero on a knot
        rng = np.random.default_rng(53)
        for trial in range(200):
            m, n, k = (int(v) for v in rng.integers((1, 0, 1), (5, 8, 4)))
            integer = trial % 2 == 1

            def draw(shape):
                if integer:
                    return rng.integers(-2, 3, shape).astype(float)
                return rng.uniform(-2, 2, shape)

            knots = np.arange(float(n)) if integer else np.sort(rng.uniform(-5, 5, n))
            bundle = rs.SplineBundle(knots, draw(m), draw(m), draw((m, n)))
            A, c, b = draw((k, m)), draw(k), draw(k)
            fast = rs.layer_transfer(bundle, rs.Layer(A, b, c))
            slow = looped_layer_transfer(bundle, A, c, b)
            np.testing.assert_array_equal(fast.knots, slow.knots)
            np.testing.assert_array_equal(fast.coeff_matrix, slow.coeff_matrix)
            # A @ tails may sum its at most 4 terms of size <= 4 in another
            # order, which moves the result by at most 2 * 3 * 16 eps
            eps = np.finfo(float).eps
            np.testing.assert_allclose(fast.q1s, slow.q1s, rtol=0, atol=96 * eps)
            np.testing.assert_allclose(fast.q0s, slow.q0s, rtol=0, atol=96 * eps)

    def test_single_member_matches_sigma_compose(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            f = random_canonical_spline(rng, max_knots=8)
            bundle = rs.SplineBundle(
                f.knots, np.array([f.q1]), np.array([f.q0]), f.coeffs.reshape(1, -1)
            )
            out = rs.layer_transfer(bundle, rs.Layer([[1.0]], [0.0], [0.0]))
            assert_splines_match(rs.canonicalize(out.member(0)), rs.sigma_compose(f), tol=1e-12)

    def test_source_channel_and_bias(self):
        bundle = rs.SplineBundle([0.0], [1.0], [0.0], [[1.0]])
        out = rs.layer_transfer(bundle, rs.Layer([[2.0]], [-1.0], [0.5]))
        member = out.member(0)
        ts = np.linspace(-3, 3, 25)
        inner = ts + np.maximum(ts, 0.0)
        f = 2.0 * np.maximum(inner, 0.0) + 0.5 * ts - 1.0
        np.testing.assert_allclose(rs.eval_spline(member, ts), f, atol=1e-12)

    def test_width_mismatch(self):
        bundle = rs.SplineBundle([0.0], [1.0], [0.0], [[1.0]])
        with pytest.raises(rs.DimensionMismatchError):
            rs.layer_transfer(bundle, rs.Layer([[1.0, 2.0]], [0.0], [0.0]))

    def test_layer_without_source_channel(self):
        bundle = rs.SplineBundle([0.0], [1.0], [0.0], [[1.0]])
        with pytest.raises(rs.DimensionMismatchError, match="source channel"):
            rs.layer_transfer(bundle, rs.Layer([[1.0]], [0.0]))

    @pytest.mark.parametrize(
        "A,c,b",
        [
            ([[np.nan]], [0.0], [0.0]),
            ([[1.0]], [np.inf], [0.0]),
            ([[1.0]], [0.0], [-np.inf]),
        ],
    )
    def test_non_finite_layer(self, A, c, b):
        bundle = rs.SplineBundle([0.0], [1.0], [0.0], [[1.0]])
        with pytest.raises(ValueError) as info:
            rs.layer_transfer(bundle, rs.Layer(A, b, c))
        assert not isinstance(info.value, rs.DimensionMismatchError)

    @pytest.mark.parametrize(
        "c,b", [([0.0, 1.0], [0.0]), ([0.0], [0.0, 1.0]), ([], [0.0])]
    )
    def test_channel_and_bias_lengths(self, c, b):
        bundle = rs.SplineBundle([0.0], [1.0], [0.0], [[1.0]])
        with pytest.raises(rs.DimensionMismatchError):
            rs.layer_transfer(bundle, rs.Layer([[1.0]], b, c))

    def test_inactive_columns_dropped(self):
        # identical members cancel under A = (1, -1); their knot column drops
        bundle = rs.SplineBundle([0.0], [0.0, 0.0], [0.0, 0.0], [[1.0], [1.0]])
        out = rs.layer_transfer(bundle, rs.Layer([[1.0, -1.0]], [0.0], [0.0]))
        assert out.knots.shape[0] == 0
        member = out.member(0)
        assert (member.q1, member.q0) == (0.0, 0.0)


class TestDnnToSpline:
    def test_reference_fifteen_knots(self):
        s = rs.dnn_to_spline(net_max_knots())
        assert s.n_knots == 15
        np.testing.assert_allclose(s.knots, MAX15_KNOTS, atol=1e-12)
        np.testing.assert_allclose(s.coeffs, MAX15_COEFFS, atol=1e-12)
        assert s.q1 == pytest.approx(MAX15_Q1, abs=1e-12)
        assert s.q0 == pytest.approx(MAX15_Q0, abs=1e-12)

    def test_reference_three_hidden(self):
        s = rs.dnn_to_spline(net_three_hidden())
        expected_knots = np.sort(np.append(np.arange(1.0, 15.0), THREE_EXTRA_KNOT))
        assert s.n_knots == 15
        np.testing.assert_allclose(s.knots, expected_knots, atol=1e-12)
        np.testing.assert_allclose(s.coeffs, THREE_SPLINE_COEFFS, atol=1e-12)
        assert s.q1 == pytest.approx(THREE_SPLINE_Q1, abs=1e-12)
        assert s.q0 == pytest.approx(THREE_SPLINE_Q0, abs=1e-12)

    def test_reference_no_source(self):
        s = rs.dnn_to_spline(net_nine_knots())
        np.testing.assert_allclose(s.knots, NINE_KNOTS, atol=1e-12)
        # left tail is sigma(b2) summed by A3: sigma(1) + sigma(-2) = 1
        assert (s.q1, s.q0) == (0.0, 1.0)
        assert np.all(np.abs(s.coeffs) > 1e-9)

    def test_shallow_path(self):
        net = rs.ReluNetwork.shallow([1.0, -2.0], [0.0, 4.0], [1.0, 3.0], c2=0.5, b2=-1.0)
        direct = hinge_shallow_to_spline(0.5, -1.0, [1.0, -2.0], [1.0, 3.0], [0.0, 4.0])
        assert_splines_match(rs.dnn_to_spline(net), direct, tol=0.0)

    def test_random_networks_agree_with_forward_pass(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            net = random_network(rng)
            s = rs.dnn_to_spline(net)
            assert s.is_canonical()
            grid = rs.probe_grid(s.knots, margin=5.0, per_interval=3)
            assert rs.equivalence_error(net, s, grid) <= 1e-8
            assert s.n_knots <= rs.knot_bound(net.widths)

    def test_degenerate_first_layers(self):
        # dead units with b1 > 0 and b1 < 0, two units sharing the hinge at 1,
        # and a negative-slope unit hinging at 2
        first_layers = [
            ([0.0, 0.0, 1.0, 2.0, -1.5, 0.5], [1.5, -0.7, -1.0, -2.0, 3.0, 1.0]),
            ([0.0, 1.0], [2.0, 0.5]),
            ([0.0, 0.0], [1.0, -1.0]),
            ([3.0, 3.0, -1.0], [-3.0, -3.0, 1.0]),
            ([-1.0, -2.0, 0.0], [1.0, 4.0, -2.0]),
        ]
        rng = np.random.default_rng(47)
        for a1, b1 in first_layers:
            n1 = len(a1)
            hinges = [-b / a for a, b in zip(a1, b1) if a != 0.0]
            for _ in range(10):
                n2 = int(rng.integers(1, 4))
                net = rs.ReluNetwork(
                    (
                        rs.Layer(np.reshape(a1, (n1, 1)), b1),
                        rs.Layer(rng.uniform(-2, 2, (n2, n1)), rng.uniform(-2, 2, n2),
                                 rng.uniform(-1, 1, n2)),
                        rs.Layer(rng.uniform(-2, 2, (1, n2)), rng.uniform(-1, 1, 1),
                                 rng.uniform(-1, 1, 1)),
                    )
                )
                s = rs.dnn_to_spline(net)
                assert s.is_canonical()
                grid = rs.probe_grid(np.unique(np.concatenate((s.knots, hinges))),
                                     margin=5.0, per_interval=3)
                assert rs.equivalence_error(net, s, grid) <= 1e-8
                assert s.n_knots <= rs.knot_bound(net.widths)


def overflow_network(kind: str) -> rs.ReluNetwork:
    """A finite network whose conversion overflows in the named bundle array."""
    if kind == "bundle knots":
        # the first layer's hinge -1e300 / 1e-9 is -inf
        return rs.ReluNetwork((rs.Layer([[1e-9]], [1e300]), rs.Layer([[1.0]], [0.0], [0.0])))
    first = rs.Layer([[1.0], [1.0]], [0.0, -1.0])
    last = rs.Layer([[1e200, 1e200]], [0.0], [0.0])
    big = {
        "coeff_matrix": rs.Layer([[1e200, -1e200], [1e200, 1e200]], [0.0, 0.0], [0.0, 0.0]),
        "q1s": rs.Layer([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], [-1e308, -1e308]),
        "q0s": rs.Layer([[1.0, 1.0], [1.0, 1.0]], [1e308, 1e308], [0.0, 0.0]),
    }
    return rs.ReluNetwork((first, big[kind], last))


class TestComputedBundlesCheckedOnce:
    @pytest.mark.parametrize("kind", ["coeff_matrix", "q1s", "q0s", "bundle knots"])
    def test_overflow_fails_loudly(self, kind):
        # every layer is finite; the conversion overflows on its way
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=f"^{kind} contains non-finite entries$"):
                rs.dnn_to_spline(overflow_network(kind))

    @pytest.mark.parametrize("kind", ["coeff_matrix", "q1s", "q0s", "bundle knots"])
    def test_overflow_raises_without_numpy_warnings(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{kind} contains non-finite entries$"):
                rs.dnn_to_spline(overflow_network(kind))
            if kind == "bundle knots":
                # normalization meets the same infinite hinge, one unit or
                # two, and does not take two of them for coinciding
                first = rs.Layer([[1e-9], [1e-9]], [1e300, 1e300])
                two = rs.ReluNetwork((first, rs.Layer([[1.0, 1.0]], [0.0], [0.0])))
                message = "^layer bias contains non-finite entries$"
                for net in (overflow_network(kind), two):
                    with pytest.raises(ValueError, match=message) as info:
                        rs.positive_scale_normalize(net)
                    assert not isinstance(info.value, rs.DegenerateFirstLayerError)

    def test_normalize_overflow_raises_without_numpy_warnings(self):
        # the rescaled layer 3 overflows: 1e200 * 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^layer matrix contains non-finite entries$"):
                rs.positive_scale_normalize(overflow_network("q1s"))

    def test_steps_make_no_array_checks(self, monkeypatch):
        real = rs.core._frozen_array
        counts = []
        for depth in (4, 8, 12):
            net = sawtooth_network(depth)
            calls = []

            def counting(*args, calls=calls, **kwargs):
                calls.append(kwargs["name"])
                return real(*args, **kwargs)

            monkeypatch.setattr(rs.core, "_frozen_array", counting)
            rs.dnn_to_spline(net)
            monkeypatch.setattr(rs.core, "_frozen_array", real)
            counts.append(len(calls))
        # the steps take the network's checked layers, and wrap what they compute
        assert counts == [0, 0, 0], counts

    def test_normalize_builds_each_layer_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        widths = (1, 64, 64, 64, 64, 1)
        layers = [rs.Layer(rng.uniform(0.5, 2.0, (64, 1)), rng.uniform(-2.0, 2.0, 64))]
        layers += [
            rs.Layer(rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=m))
            for n, m in zip(widths[1:-1], widths[2:])
        ]
        net = rs.ReluNetwork(tuple(layers))
        real = rs.core._frozen_array
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["name"])
            return real(*args, **kwargs)

        monkeypatch.setattr(rs.core, "_frozen_array", counting)
        rs.positive_scale_normalize(net)
        monkeypatch.setattr(rs.core, "_frozen_array", real)
        # one Layer check per layer (2 arrays for layer 1, 3 for the others),
        # plus the check of the folded layer 2 before it is rescaled
        assert len(calls) == 2 + 3 * 4 + 3, calls

    def test_computed_arrays_are_shared_and_read_only(self):
        bundle = rs.SplineBundle([0.0, 1.0], [1.0, -1.0], [0.0, 1.0], [[1.0, -2.0], [0.5, 1.0]])
        layer = rs.Layer([[1.0, 2.0], [-1.0, 1.0]], [0.5, 0.0], [0.0, 1.0])
        out = rs.layer_transfer(bundle, layer)
        member = out.member(1)
        assert member.knots is out.knots
        assert np.shares_memory(member.coeffs, out.coeff_matrix)
        np.testing.assert_array_equal(member.coeffs, out.coeff_matrix[1])
        assert (member.q1, member.q0) == (float(out.q1s[1]), float(out.q0s[1]))
        assert type(member.q1) is float and type(member.q0) is float
        for arr in (out.knots, out.q1s, out.q0s, out.coeff_matrix, member.coeffs):
            assert not arr.flags.writeable
        s = rs.dnn_to_spline(net_max_knots())
        assert not s.knots.flags.writeable and not s.coeffs.flags.writeable


def integer_network(rng: np.random.Generator) -> rs.ReluNetwork:
    """Depth 2-4, hidden widths 1-4, integer parameters in [-2, 2].

    Units then vanish exactly on knots, crossings coincide with knots or
    with each other, and merged columns cancel to zero.
    """
    depth = int(rng.integers(2, 5))
    widths = [1] + [int(rng.integers(1, 5)) for _ in range(depth - 1)] + [1]

    def draw(*shape):
        return rng.integers(-2, 3, shape).astype(float)

    layers = [rs.Layer(draw(widths[1], 1), draw(widths[1]))]
    layers += [
        rs.Layer(draw(widths[i], widths[i - 1]), draw(widths[i]), draw(widths[i]))
        for i in range(2, depth + 1)
    ]
    return rs.ReluNetwork(tuple(layers))


def assert_canonical_as_returned(s: rs.CplSpline):
    """Canonical, and canonicalize returns it bit for bit."""
    assert s.is_canonical()
    again = rs.canonicalize(s)
    assert (again.q1, again.q0) == (s.q1, s.q0)
    assert again.knots.tobytes() == s.knots.tobytes()
    assert again.coeffs.tobytes() == s.coeffs.tobytes()


class TestOutputCanonicalByConstruction:
    """The last layer step's merge yields the canonical spline, no second pass."""

    def networks(self):
        yield net_max_knots()
        yield net_nine_knots()
        yield net_three_hidden()
        for depth in range(1, 11):
            yield sawtooth_network(depth)
        rng = np.random.default_rng(59)
        for _ in range(1000):
            yield random_network(rng)
        rng = np.random.default_rng(61)
        for _ in range(300):
            yield integer_network(rng)

    def test_dnn_to_spline(self):
        for net in self.networks():
            s = rs.dnn_to_spline(net)
            assert_canonical_as_returned(s)
            assert rs.audit_bound(net).observed == len(rs.active_knots(s))

    def test_sigma_compose_on_integer_splines(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            n = int(rng.integers(0, 8))
            knots = np.sort(rng.choice(np.arange(-5.0, 6.0), n, replace=False))
            coeffs = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], n)
            f = rs.CplSpline(float(rng.integers(-3, 4)), float(rng.integers(-3, 4)), knots, coeffs)
            out = rs.sigma_compose(f)
            assert_canonical_as_returned(out)
            assert out.n_knots == len(rs.active_knots(out))


class TestSplineToShallow:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            s = random_canonical_spline(rng, max_knots=15)
            back = rs.dnn_to_spline(rs.spline_to_shallow(s))
            np.testing.assert_array_equal(back.knots, s.knots)
            np.testing.assert_array_equal(back.coeffs, s.coeffs)
            assert (back.q1, back.q0) == (s.q1, s.q0)

    def test_knotless_spline(self):
        net = rs.spline_to_shallow(rs.CplSpline(2.0, -1.0, [], []))
        assert net.widths == (1, 0, 1)
        back = rs.dnn_to_spline(net)
        assert (back.q1, back.q0, back.n_knots) == (2.0, -1.0, 0)

def raw_spline(rng: np.random.Generator, tol: rs.Tolerances) -> rs.CplSpline:
    """Unsorted hinges with repeats, chains within merge_tol and tiny coefficients."""
    n = int(rng.integers(0, 40))
    base = rng.choice([-2.0, 0.0, 1.0, 3.5], n) + rng.integers(0, 2, n) * 0.5
    knots = base + rng.integers(0, 8, n) * 0.4 * tol.merge_tol
    coeffs = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-12, 3, n)
    coeffs[rng.uniform(size=n) < 0.1] = 0.0
    if n >= 2:
        knots[1], coeffs[1] = knots[0], -coeffs[0]
    return rs.CplSpline(rng.uniform(-2, 2), rng.uniform(-2, 2), knots, coeffs)


class TestSplineIsItsOwnShallowNetwork:
    """canonicalize(s) is dnn_to_spline(spline_to_shallow(s)) bit for bit."""

    TOLERANCES = (rs.DEFAULT_TOL, rs.Tolerances(zero_tol=1e-5, merge_tol=1e-6))

    def assert_identity(self, raw: rs.CplSpline, tol: rs.Tolerances):
        want = rs.canonicalize(raw, tol)
        got = rs.dnn_to_spline(rs.spline_to_shallow(raw), tol)
        assert (got.q1, got.q0) == (want.q1, want.q0)
        assert got.knots.tobytes() == want.knots.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_merge_is_shared(self):
        assert rs.transfer._merge_columns is rs.core._merge_columns

    def test_empty_spline(self):
        for tol in self.TOLERANCES:
            self.assert_identity(rs.CplSpline(1.5, -2.0, [], []), tol)

    def test_seeded_raw_splines(self):
        rng = np.random.default_rng(71)
        for trial in range(600):
            tol = self.TOLERANCES[trial % 2]
            self.assert_identity(raw_spline(rng, tol), tol)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_drawn_raw_splines(self, data):
        tol = data.draw(st.sampled_from(self.TOLERANCES))
        n = data.draw(st.integers(0, 10))
        base = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.25, 2.0]), min_size=n, max_size=n))
        steps = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        coeff = st.one_of(
            st.floats(-2.0, 2.0),
            st.just(0.0),
            st.floats(-0.5 * tol.zero_tol, 0.5 * tol.zero_tol),
        )
        coeffs = data.draw(st.lists(coeff, min_size=n, max_size=n))
        knots = np.array(base) + np.array(steps) * 0.4 * tol.merge_tol
        self.assert_identity(rs.CplSpline(0.5, -0.25, knots, np.array(coeffs)), tol)


def zero_width_network(rng: np.random.Generator, widths) -> rs.ReluNetwork:
    layers = [rs.Layer(rng.uniform(-2, 2, (widths[1], 1)), rng.uniform(-2, 2, widths[1]))]
    layers += [
        rs.Layer(
            rng.uniform(-2, 2, (widths[i], widths[i - 1])),
            rng.uniform(-2, 2, widths[i]),
            rng.uniform(-2, 2, widths[i]),
        )
        for i in range(2, len(widths))
    ]
    return rs.ReluNetwork(tuple(layers))


class TestZeroWidthHiddenLayer:
    """A bundle with no members has no knots; conversion goes on from there."""

    @pytest.mark.parametrize("widths", [(1, 1, 0, 1), (1, 2, 0, 1), (1, 2, 0, 3, 1),
                                        (1, 3, 2, 0, 1)])
    def test_matches_forward_pass(self, widths):
        rng = np.random.default_rng(73)
        for _ in range(20):
            net = zero_width_network(rng, widths)
            s = rs.dnn_to_spline(net)
            assert s.is_canonical()
            hinges = -net.layers[0].b / net.layers[0].A[:, 0]
            grid = rs.probe_grid(np.unique(np.concatenate((s.knots, hinges))),
                                 margin=5.0, per_interval=3)
            assert rs.equivalence_error(net, s, grid) <= 1e-8

    def test_last_layer_affine_part(self):
        net = zero_width_network(np.random.default_rng(79), (1, 2, 0, 1))
        s = rs.dnn_to_spline(net)
        last = net.layers[-1]
        assert (s.q1, s.q0, s.n_knots) == (last.c[0], last.b[0], 0)
