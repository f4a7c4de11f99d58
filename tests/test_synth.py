"""Prescribed-knot network construction."""

import warnings

import numpy as np
import pytest

import relusplines as rs
import relusplines.synth as synth
import relusplines.transfer as transfer
from relusplines.synth import _missing_prescribed, _zero_sign_masks

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
    even_three_level,
    fourteen_hierarchy,
    max15_hierarchy,
    piecewise_form,
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
        mu = synth._slope_rows(np.array([1.0, 1.0, -1.0]), MAX15_LEVEL1, MAX15_LEVEL2)
        np.testing.assert_allclose(mu[0], [1.0, -1.0, 1.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(0.5 * mu[1], [0.5, -0.5, 0.5, -1.0], atol=1e-12)
        np.testing.assert_allclose(0.5 * mu[2], [-0.5, 0.5, -1.5, 1.0], atol=1e-12)

    def test_signs_alternate(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n1 = int(rng.integers(1, 5))
            flat = random_flat_knots(rng, 2 * n1 + 1)
            level1, row = flat[1::2], flat[0::2]
            mu = synth._slope_rows(np.array([1.0]), level1, row[None, :])[0]
            assert np.all(mu[:-1] * mu[1:] < 0)


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
        net = rs.synth_two_hidden(max15_hierarchy(), c_out=0.75, b_out=-2.0)
        s = rs.dnn_to_spline(net)
        a3, c2, b2 = net.layers[2].A[0], net.layers[1].c, net.layers[1].b
        assert s.q1 == pytest.approx(0.75 - np.sum(a3 * np.maximum(-c2, 0.0)), abs=1e-12)
        assert s.q0 == pytest.approx(-2.0 + np.sum(a3 * b2 * np.maximum(-c2, 0.0)), abs=1e-12)

    def test_output_row_options(self):
        h = max15_hierarchy()
        plus = rs.synth_two_hidden(h, a3=np.array([2.0, -3.0, 0.5]))
        np.testing.assert_array_equal(plus.layers[2].A[0], [-2.0, 3.0, -0.5])
        minus = rs.synth_two_hidden(h, plus_variant=False)
        np.testing.assert_array_equal(minus.layers[2].A[0], [1.0, -1.0, 1.0])
        assert_prescribed_active(minus, h)

    def test_rejects_three_level_hierarchy(self):
        with pytest.raises(ValueError):
            rs.synth_two_hidden(fourteen_hierarchy())

    def test_a3_length_checked(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.synth_two_hidden(max15_hierarchy(), a3=np.array([1.0]))

    def test_random_hierarchies(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            h = random_two_level(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            assert_prescribed_active(rs.synth_two_hidden(h), h)

    def test_single_unit_drops_even_knots(self):
        # one unit is negative at every second level-1 knot, so that hinge
        # cannot survive; the build raises instead of returning without it
        for n1 in range(2, 7):
            h = rs.hierarchy_from_flat(np.arange(2.0 * n1 + 1), n1, 1)
            with pytest.raises(rs.ActivityError, match="single second-layer unit") as info:
                rs.synth_two_hidden(h)
            assert info.value.inactive == h.level1[1::2].tolist()
            # the network the build would return loses exactly those knots
            first, second = rs.synth._two_hidden_layers(h)
            net = rs.ReluNetwork((first, second, rs.Layer([[-1.0]], [0.0], [0.0])))
            missing = rs.synth._missing_prescribed(
                rs.dnn_to_spline(net), rs.prescribed_knots(h), rs.DEFAULT_TOL
            )
            assert missing.tolist() == info.value.inactive


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
        scaled = rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2, seeds=np.array([-2.0, 1.0]))
        np.testing.assert_allclose(scaled.layers[1].A[0], 2.0 * base.layers[1].A[0], atol=1e-12)
        np.testing.assert_allclose(scaled.layers[1].b[0], 2.0 * base.layers[1].b[0], atol=1e-12)
        np.testing.assert_allclose(scaled.layers[1].A[1], base.layers[1].A[1], atol=1e-12)

    def test_same_sign_seeds_rejected_for_deep_first_level(self):
        with pytest.raises(ValueError):
            rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2, seeds=np.array([1.0, 2.0]))

    def test_same_sign_seeds_allowed_for_single_knot(self):
        # negative seeds keep every unit positive at the level-1 knot
        net = rs.synth_two_hidden_no_source([1.0, 2.0, 3.0], 1, 2, seeds=np.array([-1.0, -2.0]))
        np.testing.assert_allclose(active_set(net), [1.0, 2.0, 3.0], atol=1e-12)

    def test_count_and_order_validated(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.synth_two_hidden_no_source(NINE_KNOTS, 2, 2)
        with pytest.raises(rs.InterlacingError):
            rs.synth_two_hidden_no_source([1.0, 3.0, 2.0], 1, 2)

    @pytest.mark.parametrize("n1,n2", [(0, 1), (0, 3), (-1, 2)])
    def test_empty_first_level_rejected(self, n1, n2):
        with pytest.raises(rs.InterlacingError, match="level 1 needs at least one knot"):
            rs.synth_two_hidden_no_source([], n1, n2)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match=r"^widths must be non-negative, got \(1, -1\)$"):
            rs.synth_two_hidden_no_source([], 1, -1)
        assert rs.synth_two_hidden_no_source([5.0], 1, 0).widths == (1, 1, 0, 1)

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
            manual = rs.synth_three_hidden(fourteen_hierarchy(), eps=np.array([1.0, -1.0]))
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
            net = rs.synth_three_hidden(fourteen_hierarchy(), a4=np.array([1.0, -1.0]))
        np.testing.assert_array_equal(net.layers[3].A[0], [1.0, -1.0])
        assert_prescribed_active(net, fourteen_hierarchy())

    def test_dead_output_weights_raise_activity_error(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_three_hidden(fourteen_hierarchy(), a4=np.array([1e-12, 1e-12]))
        assert len(info.value.inactive) == 14

    def test_bad_eps_exhausts_retries(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_three_hidden(fourteen_hierarchy(), eps=np.array([1.0, 1.0]))
        assert 6.0 in np.asarray(info.value.inactive).tolist()

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            rs.synth_three_hidden(max15_hierarchy())

    def test_random_hierarchies_with_ample_width(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            h = random_three_level(rng, 2, 2, 3)
            net = rs.synth_three_hidden(h)
            assert_prescribed_active(net, h)

    @pytest.mark.filterwarnings("ignore:width 2 is below log2")
    def test_rng_is_deprecated_and_unread(self):
        default = rs.network_to_obj(rs.synth_three_hidden(fourteen_hierarchy()))
        with pytest.warns(DeprecationWarning, match="^rng has no effect") as record:
            net = rs.synth_three_hidden(fourteen_hierarchy(), rng=np.random.default_rng(5))
        assert rs.network_to_obj(net) == default
        # attributed to the caller, whose module's filters decide whether it shows
        deprecations = [w for w in record if w.category is DeprecationWarning]
        assert [w.filename for w in deprecations] == [__file__]


# 35 knots with widely varying gaps (weights reach 3e14): the default final
# row -eps leaves 0.39711552308603415 inactive, and no final row keeps it,
# since both units' coefficients there are within zero_tol.  A random row
# with magnitudes near 1.8 gives it -1.45e-10 beside a largest 5.8e14, which
# only the absolute zero_tol counts as active.
RESCUED_KNOTS = [
    0.06197688071548724, 0.062017915767036275, 0.06209114504565219, 0.08029413271749664,
    0.08065267993596158, 0.11335117840805459, 0.1539567460047358, 0.15404316213520092,
    0.15597406945634565, 0.16437411137109173, 0.16634363867957822, 0.16677748185037788,
    0.1668995252015572, 0.16831018595329686, 0.26322162311417546, 0.2632944110718518,
    0.2784924392634642, 0.3000088424598149, 0.30037117120148643, 0.30056284325690075,
    0.30060392201969977, 0.30417617007684167, 0.34620037446780294, 0.3473130536143248,
    0.34736071393258405, 0.34887086915573634, 0.39711552308603415, 0.40521531192181304,
    0.40531628411153264, 0.40548006150700966, 0.40598140919018455, 0.44428823566441517,
    0.44449452282132174, 0.4447380380167721, 0.445026708741239,
]


class TestThreeHiddenRetryRescues:
    def hierarchy(self):
        return rs.hierarchy_from_flat(RESCUED_KNOTS, 6, 3, 2)

    def test_default_row_leaves_one_knot_kept_by_no_unit(self, monkeypatch):
        h = self.hierarchy()
        knot = 0.39711552308603415
        with pytest.warns(RuntimeWarning, match="below log2"):
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_three_hidden(h)
        assert info.value.inactive == [knot]
        assert str(info.value) == (
            f"prescribed knots stayed inactive, kept by no third-layer unit: [{knot}], "
            "cancelled by this final row: []"
        )
        # each unit's own conversion agrees that no unit keeps the knot
        layers, _ = reference_fixed_layers(h)
        for spline in unit_splines(layers):
            assert brute_force_missing(spline, np.array([knot])).tolist() == [knot]
        result, checks = outcome_and_attempts(rs.synth_three_hidden, h, {}, monkeypatch)
        assert result[0] == np.array([knot]).tobytes() and len(checks) == 2

    @pytest.mark.parametrize("a4", [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    def test_unit_final_rows_leave_one_knot_inactive(self, a4):
        with pytest.warns(RuntimeWarning, match="below log2"):
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_three_hidden(self.hierarchy(), a4=np.array(a4))
        assert info.value.inactive == [0.39711552308603415]


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

    @pytest.mark.parametrize(
        "knots,widths", [([0.0], (1, 1, -1)), ([1.0, 2.0, 3.0], (1, -1)), ([], (-1, 2))]
    )
    def test_negative_width_rejected(self, knots, widths):
        with pytest.raises(ValueError, match="^widths must be non-negative"):
            rs.hierarchy_from_flat(knots, *widths)

    def test_zero_width_allowed(self):
        h = rs.hierarchy_from_flat([1.0], 1, 0)
        assert h.level1.tolist() == [1.0] and h.level2.shape == (0, 2)


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


def looped_zero_sign_masks(bundle: rs.SplineBundle, targets: np.ndarray, tol=rs.DEFAULT_TOL):
    """Reference: the masks member by member and target by target, each
    target read at its nearest knot (the right one of two as near)."""
    plus_ok = np.zeros((bundle.width, targets.shape[0]), dtype=bool)
    minus_ok = np.zeros_like(plus_ok)
    for r in range(bundle.width):
        mu, _ = piecewise_form(bundle.member(r))
        for i, t in enumerate(targets):
            gaps = np.abs(bundle.knots - t)
            if gaps.size == 0 or gaps.min() > tol.merge_tol:
                continue
            pos = int(np.flatnonzero(gaps == gaps.min())[-1])
            before, after = mu[pos], mu[pos + 1]
            plus_ok[r, i] = max(after, 0.0) + max(-before, 0.0) > tol.zero_tol
            minus_ok[r, i] = max(-after, 0.0) + max(before, 0.0) > tol.zero_tol
    return plus_ok, minus_ok


class TestZeroSignMasks:
    def test_matches_member_loop(self):
        # slopes exactly zero or within zero_tol on either side of a knot;
        # targets on the knots, either side of them (within and beyond
        # merge_tol; rounding leaves computed knots on either side) and
        # past the last one
        rng = np.random.default_rng(131)
        tol = rs.DEFAULT_TOL
        for _ in range(300):
            width, k = int(rng.integers(1, 6)), int(rng.integers(0, 12))
            knots = np.sort(rng.choice(np.arange(-20.0, 21.0), k, replace=False))
            q1s = rng.choice([0.0, 1e-11, -1.0, 2.0], width)
            coeffs = rng.choice([0.0, 1e-11, -1e-11, 1.0, -1.0, 0.5], (width, k))
            bundle = rs.SplineBundle(knots, q1s, rng.uniform(-1, 1, width), coeffs)
            near = knots + rng.choice([0.0, 0.5, 2.0, -0.5, -2.0], k) * tol.merge_tol
            targets = np.sort(np.concatenate((near, rng.uniform(-25, 25, 3), [30.0])))
            got = _zero_sign_masks(bundle, targets, tol)
            want = looped_zero_sign_masks(bundle, targets, tol)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_knotless_bundle_allows_no_sign(self):
        bundle = rs.SplineBundle([], [1.0, -1.0], [0.0, 0.0], np.empty((2, 0)))
        plus_ok, minus_ok = _zero_sign_masks(bundle, np.array([-1.0, 0.0, 2.0]), rs.DEFAULT_TOL)
        assert plus_ok.shape == (2, 3) and not plus_ok.any() and not minus_ok.any()


def reference_fixed_layers(h, eps=None, tol=rs.DEFAULT_TOL):
    """Reference: layers 1 to 3 of the three-hidden build, and its signs.

    Layer 3 is evaluated member by member and the sign masks come from the
    member loop above.
    """
    n1, n2, n3 = h.n1, h.n2, h.n3
    c_signs = np.where(np.arange(1, n2 + 1) % 2 == 1, 1.0, -1.0)
    mu = synth._slope_rows(c_signs, h.level1, h.level2)
    a2, b2 = np.diff(mu, axis=1), -h.level2[:, 0] * c_signs
    walls = h.level2[:, 0]
    a3 = np.diff(synth._slope_rows(np.ones(n3), walls, h.level3), axis=1)
    even = np.arange(1, n2 + 1) % 2 == 0
    c3 = 1.0 + a3[:, even].sum(axis=1)
    b3 = -h.level3[:, 0] - a3[:, even] @ walls[even]
    bundle2 = rs.SplineBundle(h.level1, c_signs, b2, a2)
    bundle3 = rs.layer_transfer(bundle2, rs.Layer(a3, b3, c3), tol)
    if eps is None:
        targets = np.sort(np.concatenate((h.level1, h.level2.ravel())))
        values = np.stack([rs.eval_spline(bundle3.member(r), targets) for r in range(n3)])
        try:
            eps = rs.epsilon_select(values, looped_zero_sign_masks(bundle3, targets, tol), tol)
        except rs.CoverageError as err:
            eps = err.partial
    layers = (
        rs.Layer(np.ones((n1, 1)), -h.level1),
        rs.Layer(a2, b2, c_signs),
        rs.Layer(a3 * eps[:, None], b3 * eps, c3 * eps),
    )
    return layers, eps


def unit_splines(layers) -> list:
    """relu of each signed third-layer unit, one whole conversion per unit."""
    n3 = layers[-1].out_width
    return [
        rs.dnn_to_spline(rs.ReluNetwork(layers + (rs.Layer(np.eye(n3)[r : r + 1], [0.0], [0.0]),)))
        for r in range(n3)
    ]


def reference_three_hidden(h, *, eps=None, a4=None, c_out=0.0, b_out=0.0, tol=rs.DEFAULT_TOL):
    """Reference: the three-hidden build with one full conversion.

    The one attempt converts the whole network with ``dnn_to_spline``.  A
    missing knot is kept by no third-layer unit when every unit's own
    conversion misses it too.  With one second-layer unit and n1 > 1 the
    build refuses up front; the network it would return misses those knots.
    """
    n3 = h.n3
    layers, eps = reference_fixed_layers(h, eps, tol)
    row = np.asarray(a4, float) if a4 is not None else -eps
    last = rs.Layer(row.reshape(1, n3), np.array([b_out]), np.array([c_out]))
    net = rs.ReluNetwork(layers + (last,))
    wanted = rs.prescribed_knots(h)
    if h.n2 == 1 and h.n1 > 1:
        inactive = h.level1[1::2]
        assert set(inactive) <= set(brute_force_missing(rs.dnn_to_spline(net, tol), wanted))
        raise rs.ActivityError(
            "a single second-layer unit cannot keep the even-position level-1 knots "
            f"{inactive.tolist()} active",
            inactive,
        )
    missing = synth._missing_prescribed(rs.dnn_to_spline(net, tol), wanted, tol)
    if missing.size == 0:
        return net
    unit_misses = [np.isin(missing, brute_force_missing(s, missing)) for s in unit_splines(layers)]
    unkept = np.all(unit_misses, axis=0)
    raise rs.ActivityError(
        f"prescribed knots stayed inactive, kept by no third-layer unit: "
        f"{missing[unkept].tolist()}, cancelled by this final row: {missing[~unkept].tolist()}",
        missing,
    )


def outcome_and_attempts(build, h, params, monkeypatch):
    """Returned layers, or inactive knots and message, plus every activity check's spline."""
    checks = []
    checked = synth._missing_prescribed

    def recording(spline, wanted, tol):
        checks.append((spline.q1, spline.q0, spline.knots.tobytes(), spline.coeffs.tobytes()))
        return checked(spline, wanted, tol)

    monkeypatch.setattr(synth, "_missing_prescribed", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            net = build(h, **params)
            result = [
                (la.A.tobytes(), la.b.tobytes(), None if la.c is None else la.c.tobytes())
                for la in net.layers
            ]
        except rs.ActivityError as err:
            result = (np.asarray(err.inactive).tobytes(), str(err))
    monkeypatch.setattr(synth, "_missing_prescribed", checked)
    return result, checks


class TestThreeHiddenMatchesConversionLoop:
    def assert_same(self, h, monkeypatch, **params):
        got = outcome_and_attempts(rs.synth_three_hidden, h, params, monkeypatch)
        want = outcome_and_attempts(reference_three_hidden, h, params, monkeypatch)
        # the build's second check, on a miss, is its diagnosis; the
        # reference diagnoses with unit conversions, which it does not record
        assert got[0] == want[0] and got[1][:1] == want[1]
        return got

    def test_random_hierarchies(self, monkeypatch):
        # about two fifths of these fail their one attempt, the rest pass
        rng = np.random.default_rng(97)
        failed = 0
        for _ in range(40):
            n1, n2, n3 = (int(v) for v in rng.integers(1, 5, 3))
            h = random_three_level(rng, n1, n2, n3)
            result, _ = self.assert_same(h, monkeypatch)
            failed += isinstance(result, tuple)
        assert failed >= 10

    def test_options_and_retries(self, monkeypatch):
        h = fourteen_hierarchy()
        self.assert_same(h, monkeypatch)
        self.assert_same(h, monkeypatch, eps=np.array([1.0, 1.0]))
        self.assert_same(h, monkeypatch, a4=np.array([1.0, -1.0]))
        self.assert_same(h, monkeypatch, c_out=0.5, b_out=-2.0)

    def test_even_eight_cubed_fails_the_same_way(self, monkeypatch):
        result, checks = self.assert_same(even_three_level(8, 8, 8), monkeypatch)
        assert isinstance(result, tuple) and len(checks) == 2


class TestThreeHiddenCallCounts:
    def steps(self, monkeypatch, h, **opts):
        """Each layer_transfer step's (members in, members out), and the error raised."""
        calls = []
        real_transfer = synth.layer_transfer

        def counting(bundle, layer, *args, **kwargs):
            calls.append((bundle.width, layer.out_width))
            return real_transfer(bundle, layer, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("synthesis must not convert the whole network")

        monkeypatch.setattr(synth, "layer_transfer", counting)
        monkeypatch.setattr(synth, "dnn_to_spline", refuse)
        monkeypatch.setattr(transfer, "dnn_to_spline", refuse)
        monkeypatch.setattr(rs, "dnn_to_spline", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                rs.synth_three_hidden(h, **opts)
            except rs.ActivityError as err:
                return calls, err
        return calls, None

    @pytest.mark.parametrize(
        "opts,steps",
        [
            (None, 1),
            ({"eps": np.array([1.0, 1.0])}, 2),
            ({"a4": np.array([1e-12, 1e-12])}, 2),
        ],
    )
    def test_one_transfer_per_attempt_and_no_conversion(self, monkeypatch, opts, steps):
        calls, err = self.steps(monkeypatch, fourteen_hierarchy(), **(opts or {}))
        # layers 2 and 3 (two members in, two out), the final row once, and
        # on a miss one step through the identity for G
        assert calls == [(2, 2), (2, 2), (2, 1), (2, 2)][: 2 + steps]
        assert (err is None) == (steps == 1)

    def test_even_eight_cubed_decides_once(self, monkeypatch):
        # every failure of the random and evenly spread sweeps had a knot
        # that no third-layer unit keeps, so no other final row would help
        calls, err = self.steps(monkeypatch, even_three_level(8, 8, 8))
        assert calls == [(8, 8), (8, 8), (8, 1), (8, 8)]
        assert len(err.inactive) == 3
        assert str(err).endswith(
            f"kept by no third-layer unit: {err.inactive}, cancelled by this final row: []"
        )

    def test_single_second_layer_unit_raises_before_any_step(self, monkeypatch):
        rng = np.random.default_rng(139)
        for n1, n3 in ((2, 1), (3, 2), (4, 3), (5, 4), (6, 1)):
            h = random_three_level(rng, n1, 1, n3)
            calls, err = self.steps(monkeypatch, h)
            assert calls == []
            assert err.inactive == h.level1[1::2].tolist()
            assert "single second-layer unit" in str(err)


def looped_hierarchy_from_flat(ks, n1, n2, n3=None):
    """Reference: fill the levels knot by knot in the documented order."""
    level1, level2, level3 = np.empty(n1), np.empty((n2, n1 + 1)), None
    pos, start = 0, 0
    if n3 is not None:
        level3 = np.empty((n3, n2 + 1))
        for j in range(n2 + 1):
            level3[:, j] = ks[pos : pos + n3]
            pos += n3
            if j < n2:
                level2[j, 0] = ks[pos]
                pos += 1
        level1[0] = ks[pos]
        pos, start = pos + 1, 1
    for v in range(start, n1 + 1):
        level2[:, v] = ks[pos : pos + n2]
        pos += n2
        if v < n1:
            level1[v] = ks[pos]
            pos += 1
    return level1, level2, level3


class TestHierarchyFromFlatMatchesLoop:
    def test_random_sizes(self):
        rng = np.random.default_rng(137)
        for _ in range(60):
            n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            n3 = None if rng.uniform() < 0.4 else int(rng.integers(1, 5))
            count = n1 + n2 * (n1 + 1) + (0 if n3 is None else n3 * (n2 + 1))
            ks = np.cumsum(rng.uniform(0.1, 1.0, count))
            h = rs.hierarchy_from_flat(ks, n1, n2, n3)
            level1, level2, level3 = looped_hierarchy_from_flat(ks, n1, n2, n3)
            np.testing.assert_array_equal(h.level1, level1)
            np.testing.assert_array_equal(h.level2, level2)
            if n3 is None:
                assert h.level3 is None
            else:
                np.testing.assert_array_equal(h.level3, level3)


# a value away from the default for every build parameter, sized for the
# builds below, which all have n2 = 2 (and n3 = 2)
CHANGED_OPTIONS = dict(
    a3=[2.0, -3.0], eps=[-1.0, 1.0], a4=[2.0, -1.0], seeds=[-2.0, 1.0],
    c_out=0.75, b_out=-2.0, plus_variant=False,
)
BUILDS = {
    "synth_two_hidden": lambda **params: rs.synth_two_hidden(
        rs.hierarchy_from_flat(np.arange(1.0, 12.0), 3, 2), **params
    ),
    "synth_two_hidden_no_source": lambda **params: rs.synth_two_hidden_no_source(
        NINE_KNOTS, 3, 2, **params
    ),
    "synth_three_hidden": lambda **params: rs.synth_three_hidden(fourteen_hierarchy(), **params),
}
READS = {
    "synth_two_hidden": {"a3", "plus_variant", "c_out", "b_out"},
    "synth_two_hidden_no_source": {"seeds", "a3", "b_out"},
    "synth_three_hidden": {"eps", "a4", "c_out", "b_out"},
}


@pytest.mark.filterwarnings("ignore:width 2 is below log2")
@pytest.mark.parametrize("field", sorted(CHANGED_OPTIONS))
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_every_option_is_read_or_refused(build, field):
    # each build's parameters change its output; another build's is not a parameter
    params = {field: CHANGED_OPTIONS[field]}
    if field in READS[build]:
        default, changed = BUILDS[build](), BUILDS[build](**params)
        assert rs.network_to_obj(changed) != rs.network_to_obj(default)
    else:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            BUILDS[build](**params)


class TestBuildParameters:
    @pytest.mark.filterwarnings("ignore:width 2 is below log2")
    def test_validation(self):
        two = BUILDS["synth_two_hidden"]
        no_source = BUILDS["synth_two_hidden_no_source"]
        three = BUILDS["synth_three_hidden"]
        for build in (two, no_source):
            with pytest.raises(ValueError, match="^a3 entries must be nonzero$"):
                build(a3=[1.0, 0.0])
            with pytest.raises(ValueError, match="^a3 contains non-finite entries$"):
                build(a3=[1.0, np.nan])
            with pytest.raises(rs.DimensionMismatchError, match="^a3 must be 1-dimensional"):
                build(a3=[[1.0, 1.0]])
        with pytest.raises(ValueError, match="^eps entries must be \\+-1$"):
            three(eps=[1.0, 0.5])
        with pytest.raises(ValueError, match="^a4 contains non-finite entries$"):
            three(a4=[1.0, np.inf])
        with pytest.raises(rs.DimensionMismatchError, match="^a4 must have length 2$"):
            three(a4=[1.0])
        with pytest.raises(ValueError, match="^seeds must be nonzero$"):
            rs.synth_two_hidden_no_source([1.0, 2.0], 1, 1, seeds=[0.0])
        for build in (two, three):
            with pytest.raises(ValueError, match="^c_out must be finite, got inf$"):
                build(c_out=np.inf)
        for build in BUILDS.values():
            with pytest.raises(ValueError, match="^b_out must be finite, got nan$"):
                build(b_out=np.nan)
        net = two(a3=[1.0, 2.0], c_out=0.5)
        assert net.layers[-1].c[0] == 0.5
        np.testing.assert_array_equal(np.abs(net.layers[-1].A[0]), [1.0, 2.0])
        net = three(eps=[-1.0, 1.0], c_out=0.5)
        np.testing.assert_array_equal(net.layers[-1].A[0], [1.0, -1.0])
