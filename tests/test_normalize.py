"""Positive-scaling normal form."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relusplines as rs

from helpers import (
    MAX15_B2_TILDE,
    MAX15_C2_TILDE,
    MAX15_KNOTS,
    MAX15_LEVEL1,
    net_max_knots,
    random_network,
)


class TestPositiveScaleNormalize:
    def test_reference_network(self):
        net = rs.positive_scale_normalize(net_max_knots())
        second, out = net.layers[1], net.layers[2]
        np.testing.assert_array_equal(second.c, [1.0, 1.0, -1.0])
        np.testing.assert_allclose(second.b, [-0.5, -0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(out.A, [[1.0, 0.5, 0.5]], atol=1e-12)

    def test_function_preserved_on_reference(self):
        original = net_max_knots()
        net = rs.positive_scale_normalize(original)
        grid = rs.probe_grid(MAX15_KNOTS)
        fa = rs.eval_network(original, grid)
        fb = rs.eval_network(net, grid)
        assert np.max(np.abs(fa - fb) / (1.0 + np.abs(fa))) < 1e-12

    def test_idempotent_bit_for_bit(self):
        once = rs.positive_scale_normalize(net_max_knots())
        twice = rs.positive_scale_normalize(once)
        for la, lb in zip(once.layers, twice.layers):
            np.testing.assert_array_equal(la.A, lb.A)
            np.testing.assert_array_equal(la.b, lb.b)
            if la.c is not None:
                np.testing.assert_array_equal(la.c, lb.c)

    def test_zero_channel_kept_at_zero(self):
        net = rs.ReluNetwork(
            (
                rs.Layer([[1.0], [1.0]], [0.0, -1.0]),
                rs.Layer([[1.0, 2.0], [0.5, -1.0]], [0.3, 0.1], [0.0, 0.0]),
                rs.Layer([[1.0, 1.0]], [0.0], [0.0]),
            )
        )
        out = rs.positive_scale_normalize(net)
        np.testing.assert_array_equal(out.layers[1].c, [0.0, 0.0])
        np.testing.assert_array_equal(out.layers[1].A, net.layers[1].A)
        np.testing.assert_array_equal(out.layers[2].A, net.layers[2].A)

    def test_shallow_network_gets_unit_first_layer(self):
        net = rs.ReluNetwork.shallow([2.0, -4.0], [-2.0, 8.0], [1.0, 1.0], c2=0.25)
        out = rs.positive_scale_normalize(net)
        np.testing.assert_array_equal(out.layers[0].A, np.ones((2, 1)))
        # the folded-in affine part of the downhill unit lands in the channel
        assert out.layers[1].c[0] == 0.25 - 4.0
        ts = np.linspace(-3, 3, 31)
        np.testing.assert_allclose(
            rs.eval_network(out, ts), rs.eval_network(net, ts), atol=1e-12
        )

    def test_random_networks(self):
        rng = np.random.default_rng(51)
        done = 0
        while done < 100:
            net = random_network(rng)
            try:
                out = rs.positive_scale_normalize(net)
            except rs.DegenerateFirstLayerError:
                continue
            done += 1
            assert rs.is_normalized(out)
            for layer in out.layers[1:-1]:
                assert set(np.unique(layer.c)) <= {-1.0, 0.0, 1.0}
            s = rs.dnn_to_spline(net)
            grid = rs.probe_grid(s.knots)
            fa = rs.eval_network(net, grid)
            fb = rs.eval_network(out, grid)
            assert np.max(np.abs(fa - fb) / (1.0 + np.abs(fa))) <= 1e-9
            again = rs.positive_scale_normalize(out)
            for la, lb in zip(out.layers, again.layers):
                np.testing.assert_array_equal(la.A, lb.A)
                np.testing.assert_array_equal(la.b, lb.b)

    def test_degenerate_first_layer_raises(self):
        net = rs.ReluNetwork(
            (
                rs.Layer([[0.0]], [1.0]),
                rs.Layer([[1.0]], [0.0], [1.0]),
                rs.Layer([[1.0]], [0.0], [0.0]),
            )
        )
        with pytest.raises(rs.DegenerateFirstLayerError):
            rs.positive_scale_normalize(net)


class TestFirstLayerRewrite:
    """Layer 1 becomes A1 = 1, b1 = -knots; its scales and lines fold into layer 2."""

    def test_reference_rewrite(self):
        first, second, out = rs.positive_scale_normalize(net_max_knots()).layers
        np.testing.assert_array_equal(first.A, np.ones((3, 1)))
        np.testing.assert_array_equal(first.b, -MAX15_LEVEL1)
        # the folded layer 2 is its sign-only channel and its bias times the
        # scales |c~2| that land in the output row, which was all ones
        scales = out.A[0]
        np.testing.assert_allclose(second.c * scales, MAX15_C2_TILDE, atol=1e-12)
        np.testing.assert_allclose(second.b * scales, MAX15_B2_TILDE, atol=1e-12)

    def test_unsorted_negative_slopes(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            net = random_network(rng)
            hinges = -net.layers[0].b / net.layers[0].A[:, 0]
            gap = np.min(np.diff(np.sort(hinges))) if hinges.size > 1 else 1.0
            if gap <= 1e-9:
                continue
            rewritten = rs.positive_scale_normalize(net)
            knots = -rewritten.layers[0].b
            np.testing.assert_array_equal(knots, np.sort(hinges))
            assert np.all(np.diff(knots) > 0)
            grid = rs.probe_grid(knots)
            fa = rs.eval_network(net, grid)
            fb = rs.eval_network(rewritten, grid)
            assert np.max(np.abs(fa - fb) / (1.0 + np.abs(fa))) < 1e-9

    def test_dead_unit_raises(self):
        net = rs.ReluNetwork(
            (
                rs.Layer([[1.0], [0.0]], [0.0, 1.0]),
                rs.Layer([[1.0, 1.0]], [0.0], [0.0]),
            )
        )
        with pytest.raises(rs.DegenerateFirstLayerError, match="dead units") as info:
            rs.positive_scale_normalize(net)
        assert info.value.effective_width == 1

    def test_shared_hinge_raises(self):
        net = rs.ReluNetwork(
            (
                rs.Layer([[1.0], [2.0]], [-1.0, -2.0]),
                rs.Layer([[1.0, 1.0]], [0.0], [0.0]),
            )
        )
        with pytest.raises(rs.DegenerateFirstLayerError, match="coinciding hinges") as info:
            rs.positive_scale_normalize(net)
        assert info.value.effective_width == 1

    def test_chained_hinges_raise(self):
        # 1, 1 + 0.6e-12 and 1 + 1.2e-12 are one chain under merge_tol = 1e-12
        # although its ends are farther apart: one unit is left of the three
        hinges = [1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12, 3.0]
        assert hinges[2] - hinges[0] > rs.DEFAULT_TOL.merge_tol
        net = rs.ReluNetwork.shallow(np.ones(4), -np.array(hinges), np.ones(4))
        message = "^first layer has coinciding hinges; effective width 2 of 4$"
        with pytest.raises(rs.DegenerateFirstLayerError, match=message) as info:
            rs.positive_scale_normalize(net)
        assert info.value.effective_width == 2
        # canonical form merges the same chain
        assert not rs.CplSpline(0.0, 0.0, hinges, np.ones(4)).is_canonical()
        assert rs.CplSpline(0.0, 0.0, hinges[::2], np.ones(2)).is_canonical()


def rescaled(net: rs.ReluNetwork, exponents) -> rs.ReluNetwork:
    """Hidden unit u of layer l times 2^k: row u of A_l, b_l and c_l multiplied,
    column u of A_{l+1} divided.  The function does not change."""
    layers = list(net.layers)
    for i, k in enumerate(exponents):
        layer, successor = layers[i], layers[i + 1]
        s = 2.0 ** np.asarray(k, dtype=float)
        c = None if layer.c is None else layer.c * s
        layers[i] = rs.Layer(layer.A * s[:, None], layer.b * s, c)
        layers[i + 1] = rs.Layer(successor.A / s[None, :], successor.b, successor.c)
    return rs.ReluNetwork(tuple(layers))


class TestPowerOfTwoRescaling:
    """Positive scaling is the redundancy normalization removes: rescaling
    hidden units by powers of two leaves the normal form unchanged, bit for bit."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_normal_form_is_bit_identical(self, data):
        net = random_network(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        exponents = [
            np.array(data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
            for n in net.widths[1:-1]
        ]
        # precondition: normalization decides the same with and without the
        # factors.  A first-layer slope stays on its side of zero_tol, and a
        # rescaled unit's channel (layer 2's after the first-layer fold)
        # stays above it: a channel within zero_tol fixes no scale.
        zero_tol = rs.DEFAULT_TOL.zero_tol
        first, second = net.layers[:2]
        a1 = first.A[:, 0]
        scaled_a1 = a1 * 2.0 ** exponents[0]
        assume(np.array_equal(np.abs(a1) > zero_tol, np.abs(scaled_a1) > zero_tol))
        channels = [second.c - second.A @ np.maximum(-a1, 0.0)]
        channels += [layer.c for layer in net.layers[2:-1]]
        for c, k in zip(channels, exponents[1:]):
            moved = k != 0
            assume(np.all(np.abs(c[moved]) > zero_tol))
            assume(np.all(np.abs(c[moved] * 2.0 ** k[moved]) > zero_tol))

        expected = rs.positive_scale_normalize(net)
        actual = rs.positive_scale_normalize(rescaled(net, exponents))
        for la, lb in zip(expected.layers, actual.layers):
            assert la.A.tobytes() == lb.A.tobytes()
            assert la.b.tobytes() == lb.b.tobytes()
            assert (la.c is None) == (lb.c is None)
            if la.c is not None:
                assert la.c.tobytes() == lb.c.tobytes()


class TestIsNormalized:
    def test_reference_before_and_after(self):
        assert not rs.is_normalized(net_max_knots())
        assert rs.is_normalized(rs.positive_scale_normalize(net_max_knots()))

    def test_output_channel_unconstrained(self):
        net = rs.ReluNetwork(
            (
                rs.Layer([[1.0]], [0.0]),
                rs.Layer([[1.0]], [0.0], [-1.0]),
                rs.Layer([[1.0]], [0.0], [7.5]),
            )
        )
        assert rs.is_normalized(net)
