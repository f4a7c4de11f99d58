"""Prescribed-knot network construction."""

import warnings

import numpy as np
import pytest

import relusplines as rs
from relusplines.synth import _missing_prescribed

from helpers import (
    FOURTEEN_KNOTS,
    MAX15_LEVEL1,
    MAX15_LEVEL2,
    NINE_A2,
    NINE_B2,
    NINE_KNOTS,
    THREE_A2,
    THREE_A3,
    THREE_A4,
    THREE_B2,
    THREE_B3,
    THREE_C2,
    THREE_C3,
    THREE_EXTRA_KNOT,
    fourteen_hierarchy,
    max15_hierarchy,
    random_flat_knots,
    random_three_level,
    random_two_level,
)


def active_set(net: rs.ReluNetwork) -> np.ndarray:
    s = rs.dnn_to_spline(net)
    return s.knots[np.abs(s.coeffs) > 1e-10]


def assert_prescribed_active(net: rs.ReluNetwork, h: rs.KnotHierarchy, atol=1e-9):
    wanted = rs.prescribed_knots(h)
    active = active_set(net)
    gaps = np.min(np.abs(wanted[:, None] - active[None, :]), axis=1)
    assert np.max(gaps) <= atol


class TestSlopesFromKnots:
    def test_reference_rows(self):
        # unit rows of the 15-knot example, scaled to unit starting slope
        mu1 = rs.slopes_from_knots(1.0, MAX15_LEVEL1, MAX15_LEVEL2[0])
        np.testing.assert_allclose(mu1, [1.0, -1.0, 1.0, -2.0], atol=1e-12)
        mu2 = rs.slopes_from_knots(1.0, MAX15_LEVEL1, MAX15_LEVEL2[1])
        np.testing.assert_allclose(0.5 * mu2, [0.5, -0.5, 0.5, -1.0], atol=1e-12)
        mu3 = rs.slopes_from_knots(-1.0, MAX15_LEVEL1, MAX15_LEVEL2[2])
        np.testing.assert_allclose(0.5 * mu3, [-0.5, 0.5, -1.5, 1.0], atol=1e-12)

    def test_signs_alternate(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n1 = int(rng.integers(1, 5))
            flat = random_flat_knots(rng, 2 * n1 + 1)
            level1, row = flat[1::2], flat[0::2]
            mu = rs.slopes_from_knots(1.0, level1, row)
            assert np.all(mu[:-1] * mu[1:] < 0)

    def test_interlacing_enforced(self):
        with pytest.raises(rs.InterlacingError):
            rs.slopes_from_knots(1.0, [1.0, 2.0], [0.5, 2.5, 3.0])

    def test_row_length_checked(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.slopes_from_knots(1.0, [1.0, 2.0], [0.5, 1.5])

    def test_sign_argument_checked(self):
        with pytest.raises(ValueError):
            rs.slopes_from_knots(2.0, [1.0], [0.5, 1.5])


class TestWeightsFromSlopes:
    def test_reference_row(self):
        mu = rs.slopes_from_knots(1.0, MAX15_LEVEL1, MAX15_LEVEL2[0])
        np.testing.assert_allclose(rs.weights_from_slopes(mu), [-2.0, 2.0, -3.0], atol=1e-12)

    def test_matrix_rows(self):
        mu = np.array([[0.0, 1.0, -1.0], [2.0, 2.0, 5.0]])
        np.testing.assert_array_equal(
            rs.weights_from_slopes(mu), [[1.0, -2.0], [0.0, 3.0]]
        )


class TestSynthTwoHidden:
    def test_all_prescribed_knots_active(self):
        h = max15_hierarchy()
        net = rs.synth_two_hidden(h)
        assert net.widths == (1, 3, 3, 1)
        assert_prescribed_active(net, h)

    def test_source_signs_and_hinges(self):
        net = rs.synth_two_hidden(max15_hierarchy())
        np.testing.assert_array_equal(net.layers[1].c, [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(net.layers[0].b, -MAX15_LEVEL1)
        np.testing.assert_allclose(
            net.layers[1].b, -MAX15_LEVEL2[:, 0] * net.layers[1].c, atol=1e-12
        )

    def test_tail_matches_channel_formula(self):
        opts = rs.SynthesisOptions(c_out=0.75, b_out=-2.0)
        net = rs.synth_two_hidden(max15_hierarchy(), opts)
        s = rs.dnn_to_spline(net)
        a3, c2, b2 = net.layers[2].A[0], net.layers[1].c, net.layers[1].b
        assert s.q1 == pytest.approx(0.75 - np.sum(a3 * np.maximum(-c2, 0.0)), abs=1e-12)
        assert s.q0 == pytest.approx(-2.0 + np.sum(a3 * b2 * np.maximum(-c2, 0.0)), abs=1e-12)

    def test_output_row_options(self):
        h = max15_hierarchy()
        plus = rs.synth_two_hidden(h, rs.SynthesisOptions(a3=np.array([2.0, -3.0, 0.5])))
        np.testing.assert_array_equal(plus.layers[2].A[0], [-2.0, 3.0, -0.5])
        minus = rs.synth_two_hidden(h, rs.SynthesisOptions(plus_variant=False))
        np.testing.assert_array_equal(minus.layers[2].A[0], [1.0, -1.0, 1.0])
        assert_prescribed_active(minus, h)

    def test_rejects_three_level_hierarchy(self):
        with pytest.raises(ValueError):
            rs.synth_two_hidden(fourteen_hierarchy())

    def test_a3_length_checked(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.synth_two_hidden(max15_hierarchy(), rs.SynthesisOptions(a3=np.array([1.0])))

    def test_random_hierarchies(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            h = random_two_level(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            assert_prescribed_active(rs.synth_two_hidden(h), h)

    def test_single_unit_drops_even_knots(self):
        # one unit is negative at every second level-1 knot, so that hinge
        # cannot survive; the build warns instead of failing
        h = rs.hierarchy_from_flat([0.0, 1.0, 2.0, 3.0, 4.0], 2, 1)
        with pytest.warns(RuntimeWarning, match="single second-layer unit"):
            net = rs.synth_two_hidden(h)
        active = active_set(net)
        assert np.min(np.abs(active - h.level1[0])) <= 1e-9
        assert np.min(np.abs(active - h.level1[1])) > 0.5


class TestSynthTwoHiddenNoSource:
    def test_reference_parameters(self):
        net = rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2)
        np.testing.assert_array_equal(net.layers[0].b, [-1.0, -4.0, -7.0])
        np.testing.assert_allclose(net.layers[1].A, NINE_A2, atol=1e-12)
        np.testing.assert_allclose(net.layers[1].b, NINE_B2, atol=1e-12)
        np.testing.assert_array_equal(net.layers[1].c, [0.0, 0.0])
        np.testing.assert_array_equal(net.layers[2].A, [[1.0, 1.0]])
        assert net.layers[2].b[0] == 0.0 and net.layers[2].c[0] == 0.0

    def test_all_knots_active(self):
        net = rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2)
        np.testing.assert_allclose(active_set(net), NINE_KNOTS, atol=1e-12)

    def test_rows_scale_linearly_with_seeds(self):
        base = rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2)
        scaled = rs.synth_two_hidden_no_source(
            NINE_KNOTS, 3, 2, rs.SynthesisOptions(seeds=np.array([-2.0, 1.0]))
        )
        np.testing.assert_allclose(scaled.layers[1].A[0], 2.0 * base.layers[1].A[0], atol=1e-12)
        np.testing.assert_allclose(scaled.layers[1].b[0], 2.0 * base.layers[1].b[0], atol=1e-12)
        np.testing.assert_allclose(scaled.layers[1].A[1], base.layers[1].A[1], atol=1e-12)

    def test_same_sign_seeds_rejected_for_deep_first_level(self):
        with pytest.raises(ValueError):
            rs.synth_two_hidden_no_source(
                NINE_KNOTS, 3, 2, rs.SynthesisOptions(seeds=np.array([1.0, 2.0]))
            )

    def test_same_sign_seeds_allowed_for_single_knot(self):
        # negative seeds keep every unit positive at the level-1 knot
        net = rs.synth_two_hidden_no_source(
            [1.0, 2.0, 3.0], 1, 2, rs.SynthesisOptions(seeds=np.array([-1.0, -2.0]))
        )
        np.testing.assert_allclose(active_set(net), [1.0, 2.0, 3.0], atol=1e-12)

    def test_count_and_order_validated(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.synth_two_hidden_no_source(NINE_KNOTS, 2, 2)
        with pytest.raises(rs.InterlacingError):
            rs.synth_two_hidden_no_source([1.0, 3.0, 2.0], 1, 2)

    def test_random_flat_knots(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            ks = random_flat_knots(rng, n1 * (n2 + 1))
            if n1 > 1 and n2 == 1:
                continue  # single seed cannot change sign
            net = rs.synth_two_hidden_no_source(ks, n1, n2)
            np.testing.assert_allclose(active_set(net), ks, atol=1e-9)


class TestRedundancyResidual:
    def test_no_source_hierarchy_satisfies_relation(self):
        h = max15_hierarchy()
        for j in range(3):
            assert abs(rs.redundancy_residual(h, {1, 2}, j)) <= 1e-9

    def test_perturbed_hierarchy_breaks_relation(self):
        level2 = MAX15_LEVEL2.copy()
        level2[0, 3] = 3.4
        h = rs.KnotHierarchy(MAX15_LEVEL1, level2)
        assert abs(rs.redundancy_residual(h, {1, 2}, 0)) > 1e-3

    def test_index_set_validated(self):
        h = max15_hierarchy()
        with pytest.raises(ValueError):
            rs.redundancy_residual(h, set(), 0)
        with pytest.raises(ValueError):
            rs.redundancy_residual(h, {0, 1, 2}, 0)
        with pytest.raises(ValueError):
            rs.redundancy_residual(h, {3}, 0)


class TestEpsilonSelect:
    def test_tie_prefers_plus(self):
        np.testing.assert_array_equal(
            rs.epsilon_select([[1.0, -1.0], [-1.0, 1.0]]), [1.0, 1.0]
        )

    def test_negative_row_flipped(self):
        np.testing.assert_array_equal(
            rs.epsilon_select([[-1.0, -1.0], [1.0, -5.0]]), [-1.0, 1.0]
        )

    def test_uncoverable_column_raises_with_partial(self):
        with pytest.raises(rs.CoverageError) as info:
            rs.epsilon_select([[1.0, -1.0]])
        assert info.value.uncovered == [1]
        assert info.value.partial.tolist() == [1.0]

    def test_zero_entries_follow_masks(self):
        values = [[0.0, -1.0]]
        plus_ok = [[False, False]]
        minus_ok = [[True, True]]
        eps = rs.epsilon_select(values, (plus_ok, minus_ok))
        np.testing.assert_array_equal(eps, [-1.0])

    def test_enough_rows_always_cover(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            values = rng.uniform(0.5, 2.0, (5, 32)) * rng.choice([-1.0, 1.0], (5, 32))
            eps = rs.epsilon_select(values)
            assert np.all((eps[:, None] * values > 0).any(axis=0))


class TestSynthThreeHidden:
    def test_reference_layers(self):
        with pytest.warns(RuntimeWarning, match="below log2"):
            net = rs.synth_three_hidden(fourteen_hierarchy())
        assert net.widths == (1, 2, 2, 2, 1)
        np.testing.assert_array_equal(net.layers[0].b, [-9.0, -12.0])
        np.testing.assert_allclose(net.layers[1].A, THREE_A2, atol=1e-12)
        np.testing.assert_allclose(net.layers[1].b, THREE_B2, atol=1e-12)
        np.testing.assert_array_equal(net.layers[1].c, THREE_C2)
        np.testing.assert_allclose(net.layers[2].A, THREE_A3, atol=1e-12)
        np.testing.assert_allclose(net.layers[2].b, THREE_B3, atol=1e-12)
        np.testing.assert_allclose(net.layers[2].c, THREE_C3, atol=1e-12)
        np.testing.assert_array_equal(net.layers[3].A[0], THREE_A4)

    def test_all_prescribed_active_plus_one_extra(self):
        with pytest.warns(RuntimeWarning):
            net = rs.synth_three_hidden(fourteen_hierarchy())
        s = rs.dnn_to_spline(net)
        assert s.n_knots == 15
        assert_prescribed_active(net, fourteen_hierarchy())
        assert np.min(np.abs(s.knots - THREE_EXTRA_KNOT)) <= 1e-12

    def test_explicit_eps_matches_auto_selection(self):
        with pytest.warns(RuntimeWarning):
            auto = rs.synth_three_hidden(fourteen_hierarchy())
        with pytest.warns(RuntimeWarning):
            manual = rs.synth_three_hidden(
                fourteen_hierarchy(), rs.SynthesisOptions(eps=np.array([1.0, -1.0]))
            )
        for la, lb in zip(auto.layers, manual.layers):
            np.testing.assert_array_equal(la.A, lb.A)
            np.testing.assert_array_equal(la.b, lb.b)

    def test_deterministic(self):
        with pytest.warns(RuntimeWarning):
            first = rs.synth_three_hidden(fourteen_hierarchy())
        with pytest.warns(RuntimeWarning):
            second = rs.synth_three_hidden(fourteen_hierarchy())
        for la, lb in zip(first.layers, second.layers):
            np.testing.assert_array_equal(la.A, lb.A)

    def test_explicit_a4_single_attempt(self):
        with pytest.warns(RuntimeWarning):
            net = rs.synth_three_hidden(
                fourteen_hierarchy(), rs.SynthesisOptions(a4=np.array([1.0, -1.0]))
            )
        np.testing.assert_array_equal(net.layers[3].A[0], [1.0, -1.0])
        assert_prescribed_active(net, fourteen_hierarchy())

    def test_dead_output_weights_raise_activity_error(self):
        opts = rs.SynthesisOptions(a4=np.array([1e-12, 1e-12]))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_three_hidden(fourteen_hierarchy(), opts)
        assert len(info.value.inactive) == 14

    def test_bad_eps_exhausts_retries(self):
        opts = rs.SynthesisOptions(eps=np.array([1.0, 1.0]))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_three_hidden(fourteen_hierarchy(), opts)
        assert 6.0 in np.asarray(info.value.inactive).tolist()

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            rs.synth_three_hidden(max15_hierarchy())

    def test_random_hierarchies_with_ample_width(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            h = random_three_level(rng, 2, 2, 3)
            net = rs.synth_three_hidden(h, rng=np.random.default_rng(1))
            assert_prescribed_active(net, h)


class TestHierarchyFromFlat:
    def test_three_level_reference_arrangement(self):
        h = rs.hierarchy_from_flat(FOURTEEN_KNOTS, 2, 2, 2)
        np.testing.assert_array_equal(h.level1, [9.0, 12.0])
        np.testing.assert_array_equal(h.level2, [[3.0, 10.0, 13.0], [6.0, 11.0, 14.0]])
        np.testing.assert_array_equal(h.level3, [[1.0, 4.0, 7.0], [2.0, 5.0, 8.0]])

    def test_two_level_reference_arrangement(self):
        flat = np.sort(
            np.concatenate((MAX15_LEVEL1, MAX15_LEVEL2.ravel()))
        )
        h = rs.hierarchy_from_flat(flat, 3, 3)
        np.testing.assert_array_equal(h.level1, MAX15_LEVEL1)
        assert h.level3 is None

    def test_round_trip_through_prescribed_knots(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            ks = random_flat_knots(rng, n1 + n2 * (n1 + 1))
            h = rs.hierarchy_from_flat(ks, n1, n2)
            np.testing.assert_array_equal(rs.prescribed_knots(h), ks)
        for _ in range(10):
            n1, n2, n3 = 2, 2, int(rng.integers(1, 4))
            ks = random_flat_knots(rng, n1 + n2 * (n1 + 1) + n3 * (n2 + 1))
            h = rs.hierarchy_from_flat(ks, n1, n2, n3)
            np.testing.assert_array_equal(rs.prescribed_knots(h), ks)

    def test_counts_and_order_validated(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.hierarchy_from_flat(np.arange(1.0, 10.0), 2, 2)
        with pytest.raises(rs.InterlacingError):
            rs.hierarchy_from_flat([2.0, 1.0, 3.0, 4.0, 5.0], 1, 2)


def brute_force_missing(spline: rs.CplSpline, prescribed: np.ndarray) -> np.ndarray:
    """Prescribed knots farther than ACTIVITY_TOL from every active knot."""
    active = spline.knots[np.abs(spline.coeffs) > rs.DEFAULT_TOL.zero_tol]
    if active.size == 0:
        return prescribed
    gaps = np.min(np.abs(prescribed[:, None] - active[None, :]), axis=1)
    return prescribed[gaps > rs.ACTIVITY_TOL]


class TestMissingPrescribed:
    def test_empty_active_set_misses_everything(self):
        s = rs.CplSpline(1.0, 0.0, [0.0, 2.0], [0.0, 1e-12])
        wanted = np.array([0.0, 2.0])
        np.testing.assert_array_equal(_missing_prescribed(s, wanted, rs.DEFAULT_TOL), wanted)

    def test_exactly_activity_tol_away_is_active(self):
        s = rs.CplSpline(0.0, 0.0, [0.0, 1.0], [1.0, -1.0])
        tol = rs.ACTIVITY_TOL
        wanted = np.array([-tol, 0.5, 2 * tol, 1.0 + 0.5 * tol, 5.0])
        missing = _missing_prescribed(s, wanted, rs.DEFAULT_TOL)
        np.testing.assert_array_equal(missing, [0.5, 2 * tol, 5.0])

    def test_matches_brute_force(self):
        # unsorted raw knots with repeats and inactive ones; prescribed knots
        # on, next to (ties, +-ACTIVITY_TOL) and beyond the active ones
        rng = np.random.default_rng(89)
        for _ in range(300):
            k = int(rng.integers(0, 12))
            knots = np.where(rng.uniform(size=k) < 0.3, 1.0, rng.uniform(-10, 10, k))
            coeffs = np.where(rng.uniform(size=k) < 0.3, 0.0, rng.uniform(-1, 1, k))
            s = rs.CplSpline(0.0, 0.0, knots, coeffs)
            near = knots + rng.choice([0.0, 1.0, -1.0, 2.0, 0.5], k) * rs.ACTIVITY_TOL
            wanted = np.concatenate((near, rng.uniform(-15, 15, 4)))
            np.testing.assert_array_equal(
                _missing_prescribed(s, wanted, rs.DEFAULT_TOL), brute_force_missing(s, wanted)
            )
