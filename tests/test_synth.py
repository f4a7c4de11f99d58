"""Prescribed-knot network construction."""

import dataclasses
import functools
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import relusplines as rs
import relusplines.synth as synth
import relusplines.transfer as transfer

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
    net_max_knots,
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
        given = rs.synth_two_hidden(h, a3=np.array([2.0, -3.0, 0.5]))
        np.testing.assert_array_equal(given.layers[2].A[0], [2.0, -3.0, 0.5])
        assert_prescribed_active(given, h)
        flipped = rs.synth_two_hidden(h, a3=[1.0, -1.0, 1.0])
        np.testing.assert_array_equal(flipped.layers[2].A[0], [1.0, -1.0, 1.0])
        assert_prescribed_active(flipped, h)
        np.testing.assert_array_equal(rs.synth_two_hidden(h).layers[2].A[0], [-1.0, 1.0, -1.0])

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
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_two_hidden(h)
            assert info.value.inactive == h.level1[1::2].tolist()
            assert str(info.value) == (
                "prescribed knots stayed inactive, kept by no second-layer unit: "
                f"{h.level1[1::2].tolist()}, cancelled by this final row: []"
            )
            # the network the build would return loses exactly those knots
            first, second = rs.synth._two_hidden_layers(h)
            net = rs.ReluNetwork((first, second, rs.Layer([[-1.0]], [0.0], [0.0])))
            missing = brute_force_missing(rs.dnn_to_spline(net), rs.prescribed_knots(h))
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

    def test_widths_are_integers(self):
        # 1.5 units used to ask for 4.5 knots
        for n1, n2 in ((1.5, 2), (3, 2.0)):
            with pytest.raises(TypeError):
                rs.synth_two_hidden_no_source(NINE_KNOTS, n1, n2)
        net = rs.synth_two_hidden_no_source(NINE_KNOTS, np.int64(3), np.int64(2))
        assert net.widths == (1, 3, 2, 1)

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
        # no unit keeps level-1 knots 1 and 7, and the activity check names them
        message = r"^prescribed knots stayed inactive, kept by no second-layer unit: \[1.0, 7.0\], "
        with pytest.raises(rs.ActivityError, match=message) as info:
            rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2, seeds=np.array([1.0, 2.0]))
        assert info.value.inactive == [1.0, 7.0]

    def test_same_sign_seeds_allowed_for_single_knot(self):
        # negative seeds keep every unit positive at the level-1 knot
        net = rs.synth_two_hidden_no_source([1.0, 2.0, 3.0], 1, 2, seeds=np.array([-1.0, -2.0]))
        np.testing.assert_allclose(active_set(net), [1.0, 2.0, 3.0], atol=1e-12)

    def test_count_and_order_validated(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.synth_two_hidden_no_source(NINE_KNOTS, 2, 2)
        with pytest.raises(rs.DimensionMismatchError, match=r"^knots must be 1-dimensional"):
            rs.synth_two_hidden_no_source(np.arange(1.0, 19.0).reshape(9, 2), 3, 2)
        with pytest.raises(rs.InterlacingError):
            rs.synth_two_hidden_no_source([1.0, 3.0, 2.0], 1, 2)

    @pytest.mark.parametrize("n1,n2", [(0, 1), (0, 3), (-1, 2)])
    def test_empty_first_level_rejected(self, n1, n2):
        with pytest.raises(rs.InterlacingError, match="level 1 needs at least one knot"):
            rs.synth_two_hidden_no_source([], n1, n2)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match=r"^widths must be non-negative, got \(1, -1\)$"):
            rs.synth_two_hidden_no_source([], 1, -1)
        # zero is a width, refused by activity instead
        with pytest.raises(rs.ActivityError, match=r"second-layer unit: \[5.0\], cancelled"):
            rs.synth_two_hidden_no_source([5.0], 1, 0)

    def test_random_flat_knots(self, monkeypatch):
        rng = np.random.default_rng(71)
        single_seeds = 0
        for _ in range(25):
            n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            ks = random_flat_knots(rng, n1 * (n2 + 1))
            if n1 > 1 and n2 == 1:
                # the single seed cannot change sign: some level-1 knot is kept
                # by no unit, and the activity check names it
                with pytest.raises(rs.ActivityError) as info:
                    rs.synth_two_hidden_no_source(ks, n1, n2)
                net = unchecked(monkeypatch, rs.synth_two_hidden_no_source, ks, n1, n2)
                unkept = set(ks[:: n2 + 1].tolist())
                for spline in unit_splines(net.layers[:-1]):
                    unkept &= set(brute_force_missing(spline, ks).tolist())
                assert unkept and unkept <= set(info.value.inactive)
                single_seeds += 1
                continue
            net = rs.synth_two_hidden_no_source(ks, n1, n2)
            np.testing.assert_allclose(active_set(net), ks, atol=1e-9)
        assert single_seeds > 0


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

    def test_unit_index_validated(self):
        # j = -1 would read the last unit's zeros and j = n2 none at all
        h = max15_hierarchy()
        for j in (-1, h.n2):
            message = rf"^j must be in range\(n2\) = range\(3\), got {j}$"
            with pytest.raises(ValueError, match=message):
                rs.redundancy_residual(h, {1}, j)
        x, row = h.level1, h.level2[2]
        first, second = ((x[k] - row[k]) / (x[k] - row[k + 1]) for k in range(2))
        assert rs.redundancy_residual(h, {1}, 2) == first - 1.0 - first * second

    def test_indices_are_integers(self):
        # {1.5} used to count as {1}, and j = 1.5 or True failed inside numpy
        h = max15_hierarchy()
        with pytest.raises(TypeError):
            rs.redundancy_residual(h, {1.5}, 0)
        with pytest.raises(TypeError):
            rs.redundancy_residual(h, {1}, 1.5)
        want = rs.redundancy_residual(h, {1, 2}, 1)
        assert rs.redundancy_residual(h, {np.int64(1), 2}, np.int64(1)) == want
        assert rs.redundancy_residual(h, {True, 2}, True) == want


class TestGreedySigns:
    """The greedy pass that picks the three-hidden signs eps from boolean covers."""

    def test_tie_prefers_plus(self):
        # row 0 covers one column with either sign
        plus = np.array([[True, False], [False, True]])
        eps, uncovered = synth._greedy_signs(plus, ~plus)
        assert eps.tolist() == [1.0, 1.0] and uncovered.size == 0

    def test_negative_row_flipped(self):
        plus = np.array([[False, False], [True, False]])
        eps, uncovered = synth._greedy_signs(plus, np.array([[True, True], [False, True]]))
        assert eps.tolist() == [-1.0, 1.0] and uncovered.size == 0

    def test_enough_rows_always_cover(self):
        # every row covers each column with exactly one sign, so each row
        # covers at least half of what is left: 5 rows cover 31 columns
        rng = np.random.default_rng(73)
        for _ in range(50):
            plus = rng.uniform(size=(5, 31)) < 0.5
            eps, uncovered = synth._greedy_signs(plus, ~plus)
            assert uncovered.size == 0
            assert np.where(eps[:, None] > 0, plus, ~plus).any(axis=0).all()


class TestSynthThreeHidden:
    def test_reference_layers(self):
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
        net = rs.synth_three_hidden(fourteen_hierarchy())
        s = rs.dnn_to_spline(net)
        assert s.n_knots == 15
        assert_prescribed_active(net, fourteen_hierarchy())
        assert np.min(np.abs(s.knots - THREE_EXTRA_KNOT)) <= 1e-12

    def test_explicit_eps_matches_auto_selection(self):
        auto = rs.synth_three_hidden(fourteen_hierarchy())
        manual = rs.synth_three_hidden(fourteen_hierarchy(), eps=np.array([1.0, -1.0]))
        for la, lb in zip(auto.layers, manual.layers):
            np.testing.assert_array_equal(la.A, lb.A)
            np.testing.assert_array_equal(la.b, lb.b)

    def test_deterministic(self):
        first = rs.synth_three_hidden(fourteen_hierarchy())
        second = rs.synth_three_hidden(fourteen_hierarchy())
        for la, lb in zip(first.layers, second.layers):
            np.testing.assert_array_equal(la.A, lb.A)

    def test_explicit_a4_single_attempt(self):
        net = rs.synth_three_hidden(fourteen_hierarchy(), a4=np.array([1.0, -1.0]))
        np.testing.assert_array_equal(net.layers[3].A[0], [1.0, -1.0])
        assert_prescribed_active(net, fourteen_hierarchy())

    def test_dead_output_weights_raise_activity_error(self):
        with pytest.raises(rs.ActivityError) as info:
            rs.synth_three_hidden(fourteen_hierarchy(), a4=np.array([1e-12, 1e-12]))
        assert len(info.value.inactive) == 14

    def test_bad_eps_exhausts_retries(self):
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
UNKEPT_KNOTS = [
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


class TestThreeHiddenUnkeptKnot:
    def hierarchy(self):
        return rs.hierarchy_from_flat(UNKEPT_KNOTS, 6, 3, 2)

    def test_default_row_leaves_one_knot_kept_by_no_unit(self, monkeypatch):
        h = self.hierarchy()
        knot = 0.39711552308603415
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
        assert result[0] == np.array([knot]).tobytes() and len(checks) == 1

    @pytest.mark.parametrize("a4", [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    def test_unit_final_rows_leave_one_knot_inactive(self, a4):
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

    def test_widths_are_integers(self):
        for widths in ((1.5, 2), (2, 2, 1.5)):
            with pytest.raises(TypeError):
                rs.hierarchy_from_flat(FOURTEEN_KNOTS, *widths)
        h = rs.hierarchy_from_flat(FOURTEEN_KNOTS, np.int64(2), np.int64(2), np.int64(2))
        np.testing.assert_array_equal(rs.prescribed_knots(h), FOURTEEN_KNOTS)

    def test_counts_and_order_validated(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.hierarchy_from_flat(np.arange(1.0, 10.0), 2, 2)
        with pytest.raises(rs.DimensionMismatchError, match=r"^knots must be 1-dimensional"):
            rs.hierarchy_from_flat(np.linspace(-10.0, 10.0, 14)[:, None], 2, 2, 2)
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
    """Prescribed knots no active knot realizes one to one: none lies within
    ACTIVITY_TOL of it and strictly within half its distance to the nearest
    other prescribed knot."""
    active = spline.knots[np.abs(spline.coeffs) > rs.DEFAULT_TOL.zero_tol]
    apart = np.abs(prescribed[:, None] - prescribed[None, :])
    np.fill_diagonal(apart, np.inf)
    half = np.min(apart, axis=1, initial=np.inf)[:, None] / 2
    gaps = np.abs(prescribed[:, None] - active[None, :])
    return prescribed[~((gaps <= rs.ACTIVITY_TOL) & (gaps < half)).any(axis=1)]


def missing_knots(spline: rs.CplSpline, prescribed: np.ndarray) -> np.ndarray:
    """The sorted prescribed knots the build's check misses, windows from ``prescribed``."""
    windows = synth._activity_windows(prescribed)
    return prescribed[synth._missing_prescribed(spline, prescribed, windows)]


class TestMissingPrescribed:
    """The check reads a canonical spline: sorted knots, every coefficient above zero_tol."""

    def test_empty_active_set_misses_everything(self):
        s = rs.canonicalize(rs.CplSpline(1.0, 0.0, [0.0, 2.0], [0.0, 1e-12]))
        wanted = np.array([0.0, 2.0])
        np.testing.assert_array_equal(missing_knots(s, wanted), wanted)

    def test_exactly_activity_tol_away_is_active(self):
        s = rs.CplSpline(0.0, 0.0, [0.0, 1.0], [1.0, -1.0])
        tol = rs.ACTIVITY_TOL
        wanted = np.array([-tol, 2 * tol, 0.5, 1.0 + 0.5 * tol, 5.0])
        missing = missing_knots(s, wanted)
        np.testing.assert_array_equal(missing, [2 * tol, 0.5, 5.0])

    def test_one_knot_realizes_one_prescribed_knot(self):
        # prescribed pairs 2^-31 (about 4.7e-10) apart: each window stops
        # strictly short of half that, so a knot on a pair's midpoint
        # realizes neither and one on a knot leaves its neighbour missing
        d = 2.0**-31
        s = rs.CplSpline(0.0, 0.0, [0.0, 1.0 + d / 2], [1.0, -1.0])
        wanted = np.array([0.0, d, 1.0, 1.0 + d])
        np.testing.assert_array_equal(missing_knots(s, wanted), [d, 1.0, 1.0 + d])
        np.testing.assert_array_equal(brute_force_missing(s, wanted), missing_knots(s, wanted))

    def test_matches_brute_force(self):
        # canonical forms of unsorted raw knots with repeats and inactive
        # ones; prescribed knots on, next to (ties, +-ACTIVITY_TOL) and
        # beyond the raw ones
        rng = np.random.default_rng(89)
        for _ in range(300):
            k = int(rng.integers(0, 12))
            knots = np.where(rng.uniform(size=k) < 0.3, 1.0, rng.uniform(-10, 10, k))
            coeffs = np.where(rng.uniform(size=k) < 0.3, 0.0, rng.uniform(-1, 1, k))
            s = rs.canonicalize(rs.CplSpline(0.0, 0.0, knots, coeffs))
            near = knots + rng.choice([0.0, 1.0, -1.0, 2.0, 0.5], k) * rs.ACTIVITY_TOL
            wanted = np.sort(np.concatenate((near, rng.uniform(-15, 15, 4))))
            np.testing.assert_array_equal(missing_knots(s, wanted), brute_force_missing(s, wanted))


def brute_force_nearest(knots: np.ndarray, targets: np.ndarray) -> tuple:
    """The last index of the smallest |p - x| per target, and that distance."""
    gaps = np.abs(knots[None, :] - targets[:, None])
    index = knots.size - 1 - np.argmin(gaps[:, ::-1], axis=1)
    return index, gaps[np.arange(targets.size), index]


class TestNearestKnot:
    def assert_brute_force(self, knots, targets):
        index, distance = synth._nearest_knot(knots, targets)
        want_index, want_distance = brute_force_nearest(knots, targets)
        np.testing.assert_array_equal(index, want_index)
        assert distance.tobytes() == want_distance.tobytes()

    def test_hits_ties_and_both_ends(self):
        knots = np.array([-2.0, 0.0, 1.0, 3.0])
        targets = np.array([-2.0, 1.0, 3.0, -1.0, 0.5, 2.0, -7.0, 1e300, 2.5, 0.25])
        index, distance = synth._nearest_knot(knots, targets)
        # exact hits, midpoint ties (the right knot), beyond both ends
        np.testing.assert_array_equal(index, [0, 2, 3, 1, 2, 3, 0, 3, 3, 1])
        np.testing.assert_array_equal(distance, [0, 0, 0, 1, 0.5, 1, 5, 1e300, 0.5, 0.25])
        self.assert_brute_force(knots, targets)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(191)
        for _ in range(300):
            knots = np.unique(rng.uniform(-10, 10, int(rng.integers(1, 12))))
            mids = 0.5 * (knots[:-1] + knots[1:])
            targets = np.concatenate((knots, mids, rng.uniform(-15, 15, 4)))
            self.assert_brute_force(knots, targets)

    def test_no_knots(self):
        index, distance = synth._nearest_knot(np.array([]), np.array([-1.0, 0.0, 2.5]))
        np.testing.assert_array_equal(index, [-1, -1, -1])
        np.testing.assert_array_equal(distance, [np.inf] * 3)


def reference_covers(bundle: rs.SplineBundle, h: rs.KnotHierarchy, tol=rs.DEFAULT_TOL):
    """Reference: which sign of each member keeps each lower-level knot of
    ``h`` (the targets), member by member.

    Sign s of member r covers a target when ``sigma_compose(s member)``
    keeps a knot at the bundle knot nearest the target (the right one of
    two as near) and that knot lies in the target's one-to-one window:
    within ACTIVITY_TOL and strictly within half the distance to the
    nearest other prescribed knot of ``h``, by brute force.  A zero
    crossing that lands near a target without merging into that knot does
    not count.
    """
    targets = np.sort(np.concatenate((h.level1, h.level2.ravel())))
    covers = np.zeros((2, bundle.width, targets.shape[0]), dtype=bool)
    if bundle.knots.size == 0:
        return covers[0], covers[1]
    index, distance = brute_force_nearest(bundle.knots, targets)
    nearest = bundle.knots[index]
    apart = np.abs(targets[:, None] - rs.prescribed_knots(h)[None, :])
    apart[apart == 0] = np.inf  # the target itself
    inside = (distance <= rs.ACTIVITY_TOL) & (distance < np.min(apart, axis=1) / 2)
    for r in range(bundle.width):
        member = bundle.member(r)
        for s, sign in enumerate((1.0, -1.0)):
            signed = rs.CplSpline(sign * member.q1, sign * member.q0, member.knots,
                                  sign * member.coeffs)
            kept = rs.sigma_compose(signed, tol).knots
            covers[s, r] = inside & np.isin(nearest, kept)
    return covers[0], covers[1]


def reference_layer3(h, tol=rs.DEFAULT_TOL):
    """Reference: layers 1 to 3 of the three-hidden build before the signs,
    and the layer-3 bundle, stepped from a hand-made layer-2 bundle."""
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
    layers = (
        rs.Layer(np.ones((n1, 1)), -h.level1),
        rs.Layer(a2, b2, c_signs),
        rs.Layer(a3, b3, c3),
    )
    return layers, rs.layer_transfer(bundle2, layers[2], tol)


def reference_fixed_layers(h, eps=None, tol=rs.DEFAULT_TOL):
    """Reference: layers 1 to 3 of the three-hidden build, and its signs.

    Without ``eps`` the greedy pass runs on the member-by-member covers
    above.
    """
    (first, second, third), bundle3 = reference_layer3(h, tol)
    if eps is None:
        covers = reference_covers(bundle3, h, tol)
        eps = synth._greedy_signs(*covers)[0]
    signed = rs.Layer(third.A * eps[:, None], third.b * eps, third.c * eps)
    return (first, second, signed), eps


def recorded_passes(monkeypatch) -> list:
    """Every greedy sign pass's inputs from here on, the pass still running."""
    passes = []
    greedy = synth._greedy_signs

    def recording(*args):
        passes.append(args)
        return greedy(*args)

    monkeypatch.setattr(synth, "_greedy_signs", recording)
    return passes


def recorded_covers(h, passes: list) -> tuple:
    """The covers the greedy sign pass of ``h``'s three-hidden build sees."""
    passes.clear()
    try:
        rs.synth_three_hidden(h)
    except rs.ActivityError:
        pass
    (covers,) = passes
    return covers


class TestThreeHiddenSignCovers:
    """The greedy sign pass sees what relu of each signed unit keeps."""

    def test_covers_follow_sigma_compose_per_member(self, monkeypatch):
        passes = recorded_passes(monkeypatch)
        rng = np.random.default_rng(211)
        partial = 0
        for _ in range(300):
            n1, n2, n3 = (int(v) for v in rng.integers(1, 7, 3))
            h = random_three_level(rng, n1, n2, n3)
            covers_plus, covers_minus = recorded_covers(h, passes)
            want_plus, want_minus = reference_covers(reference_layer3(h)[1], h)
            np.testing.assert_array_equal(covers_plus, want_plus)
            np.testing.assert_array_equal(covers_minus, want_minus)
            partial += not (covers_plus | covers_minus).all()
        # some knots are kept by neither sign of any unit
        assert partial > 0

    @pytest.mark.parametrize("span", [2e-9, 1e-8, 3e-8])
    def test_covers_use_the_one_to_one_windows(self, monkeypatch, span):
        # evenly spread knots, most closer than 2 ACTIVITY_TOL: a bundle
        # knot in a neighbour's window does not cover this target, as in
        # the check.  At span 1e-9, steep units cross zero within merge_tol
        # of a knot yet beyond relu's zero band there, and the covers miss
        # that crossing (the open crossing half of the sign covers)
        passes = recorded_passes(monkeypatch)
        for n1, n2, n3 in itertools.product(range(1, 5), repeat=3):
            count = n1 + n2 * (n1 + 1) + n3 * (n2 + 1)
            h = rs.hierarchy_from_flat(np.linspace(0.0, span, count), n1, n2, n3)
            covers_plus, covers_minus = recorded_covers(h, passes)
            want_plus, want_minus = reference_covers(reference_layer3(h)[1], h)
            np.testing.assert_array_equal(covers_plus, want_plus)
            np.testing.assert_array_equal(covers_minus, want_minus)

    def test_knotless_layer_three_covers_nothing(self, monkeypatch):
        # with no second-layer unit, layer 3 is affine and relu keeps no
        # lower-level knot for either sign
        passes = recorded_passes(monkeypatch)
        h = rs.hierarchy_from_flat(np.linspace(-10.0, 10.0, 5), 3, 0, 2)
        with pytest.raises(rs.ActivityError):
            rs.synth_three_hidden(h)
        (covers_plus, covers_minus), = passes
        assert covers_plus.shape == (2, 3) and not covers_plus.any() and not covers_minus.any()
        want_plus, want_minus = reference_covers(reference_layer3(h)[1], h)
        assert not want_plus.any() and not want_minus.any()


def unit_splines(layers) -> list:
    """relu of each unit of the last of ``layers``, the hidden layers of a
    two- or three-hidden build, one whole conversion per unit."""
    n = layers[-1].out_width
    return [
        rs.dnn_to_spline(rs.ReluNetwork(layers + (rs.Layer(np.eye(n)[r : r + 1], [0.0], [0.0]),)))
        for r in range(n)
    ]


def miss_report(layers, missing: np.ndarray, wanted: np.ndarray) -> str:
    """The ActivityError text for ``missing`` of ``wanted`` on hidden
    ``layers``: a knot is kept by no unit when every unit's own conversion
    misses it too."""
    unit = ("second", "third")[len(layers) - 2]
    unkept = np.ones(missing.size, dtype=bool)
    for spline in unit_splines(layers):
        unkept &= np.isin(missing, brute_force_missing(spline, wanted))
    return (
        f"prescribed knots stayed inactive, kept by no {unit}-layer unit: "
        f"{missing[unkept].tolist()}, cancelled by this final row: {missing[~unkept].tolist()}"
    )


def reference_three_hidden(h, *, eps=None, a4=None, c_out=0.0, b_out=0.0, tol=rs.DEFAULT_TOL):
    """Reference: the three-hidden build with one full conversion.

    The one attempt converts the whole network with ``dnn_to_spline``.  A
    missing knot is kept by no third-layer unit when every unit's own
    conversion misses it too.
    """
    n3 = h.n3
    layers, eps = reference_fixed_layers(h, eps, tol)
    row = np.asarray(a4, float) if a4 is not None else -eps
    last = rs.Layer(row.reshape(1, n3), np.array([b_out]), np.array([c_out]))
    net = rs.ReluNetwork(layers + (last,))
    wanted = rs.prescribed_knots(h)
    missing = missing_knots(rs.dnn_to_spline(net, tol), wanted)
    if missing.size == 0:
        return net
    raise rs.ActivityError(miss_report(layers, missing, wanted), missing)


def outcome_and_attempts(build, h, params, monkeypatch):
    """Returned layers, or inactive knots and message, plus every activity check's spline."""
    checks = []
    checked = synth._missing_prescribed

    def recording(spline, wanted, windows):
        checks.append((spline.q1, spline.q0, spline.knots.tobytes(), spline.coeffs.tobytes()))
        return checked(spline, wanted, windows)

    monkeypatch.setattr(synth, "_missing_prescribed", recording)
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
        # one activity check each: on a miss the build diagnoses from the
        # nearest kept knots, the reference from unit conversions
        assert got == want
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
        assert isinstance(result, tuple) and len(checks) == 1


def transfer_steps(monkeypatch, build, *args, **opts):
    """Each layer_transfer step's (members in, members out), and the error raised."""
    calls = []
    real_transfer = synth.layer_transfer

    def counting(bundle, layer, *args, **kwargs):
        calls.append((bundle.width, layer.out_width))
        return real_transfer(bundle, layer, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("synthesis must not convert the whole network")

    monkeypatch.setattr(synth, "layer_transfer", counting)
    monkeypatch.setattr(transfer, "layer_transfer", counting)
    monkeypatch.setattr(synth, "dnn_to_spline", refuse)
    monkeypatch.setattr(transfer, "dnn_to_spline", refuse)
    monkeypatch.setattr(rs, "dnn_to_spline", refuse)
    try:
        build(*args, **opts)
    except rs.ActivityError as err:
        return calls, err
    return calls, None


class TestThreeHiddenCallCounts:
    @pytest.mark.parametrize(
        "opts,steps",
        [
            (None, 1),
            ({"eps": np.array([1.0, 1.0])}, 2),
            ({"a4": np.array([1e-12, 1e-12])}, 2),
        ],
    )
    def test_one_transfer_per_attempt_and_no_conversion(self, monkeypatch, opts, steps):
        h = fourteen_hierarchy()
        calls, err = transfer_steps(monkeypatch, rs.synth_three_hidden, h, **(opts or {}))
        # layers 2 and 3 (two members in, two out), the final row once, and
        # on a miss one step through the identity for G
        assert calls == [(2, 2), (2, 2), (2, 1), (2, 2)][: 2 + steps]
        assert (err is None) == (steps == 1)

    def test_even_eight_cubed_decides_once(self, monkeypatch):
        # every failure of the random and evenly spread sweeps had a knot
        # that no third-layer unit keeps, so no other final row would help
        calls, err = transfer_steps(monkeypatch, rs.synth_three_hidden, even_three_level(8, 8, 8))
        assert calls == [(8, 8), (8, 8), (8, 1), (8, 8)]
        assert len(err.inactive) == 3
        assert str(err).endswith(
            f"kept by no third-layer unit: {err.inactive}, cancelled by this final row: []"
        )

    def test_single_second_layer_unit_raises_before_any_step(self, monkeypatch):
        # one second-layer unit is negative at every second level-1 knot, so
        # the conversion loses those and the one identity step sorts them:
        # kept by no third-layer unit, whatever the final row
        rng = np.random.default_rng(139)
        for n1, n3 in ((2, 1), (3, 2), (4, 3), (5, 4), (6, 1)):
            h = random_three_level(rng, n1, 1, n3)
            calls, err = transfer_steps(monkeypatch, rs.synth_three_hidden, h)
            monkeypatch.undo()
            assert calls == [(n1, 1), (1, n3), (n3, 1), (n3, n3)]
            assert set(h.level1[1::2].tolist()) <= set(err.inactive)
            net = unchecked(monkeypatch, rs.synth_three_hidden, h)
            assert err.inactive == fresh_misses(net, rs.prescribed_knots(h))
            assert str(err) == miss_report(
                net.layers[:-1], np.array(err.inactive), rs.prescribed_knots(h)
            )


class TestTwoHiddenCallCounts:
    """A two-hidden build converts layers 1 and 2 once, then steps the final row,
    and on a miss the identity, from that same bundle."""

    @pytest.mark.parametrize(
        "build,args,steps",
        [
            (rs.synth_two_hidden, (max15_hierarchy(),), [(3, 3), (3, 1)]),
            (rs.synth_two_hidden_no_source, (NINE_KNOTS, 3, 2), [(3, 2), (2, 1)]),
            (
                rs.synth_two_hidden,
                (rs.hierarchy_from_flat(np.linspace(-10.0, 10.0, 120), 10, 10),),
                [(10, 10), (10, 1), (10, 10)],
            ),
            (
                rs.synth_two_hidden_no_source,
                (np.linspace(-10.0, 10.0, 72), 8, 8),
                [(8, 8), (8, 1), (8, 8)],
            ),
        ],
        ids=["max15", "nine", "two-10x10-even", "no-source-8x8-even"],
    )
    def test_one_conversion_per_build(self, monkeypatch, build, args, steps):
        calls, err = transfer_steps(monkeypatch, build, *args)
        assert calls == steps
        assert (err is None) == (len(steps) == 2)


NO_UNIT_BUILDS = {
    "synth_two_hidden": lambda ks, n1: rs.synth_two_hidden(rs.hierarchy_from_flat(ks, n1, 0)),
    "synth_two_hidden_no_source": lambda ks, n1: rs.synth_two_hidden_no_source(ks, n1, 0),
    "synth_three_hidden": lambda ks, n1: rs.synth_three_hidden(
        # the level-3 knot comes first
        rs.hierarchy_from_flat(np.concatenate(([ks[0] - 1.0], ks)), n1, 0, 1)
    ),
}


@pytest.mark.parametrize("n1", [1, 2, 3])
@pytest.mark.parametrize("build", sorted(NO_UNIT_BUILDS))
def test_no_second_layer_unit_raises_before_any_step(monkeypatch, build, n1):
    # with n2 = 0 no unit sees a level-1 knot: the conversion loses every one,
    # and the identity step on an empty (or knotless) last bundle keeps none
    level1 = np.arange(1.0, n1 + 1.0)
    with pytest.raises(rs.ActivityError) as info:
        NO_UNIT_BUILDS[build](level1, n1)
    assert info.value.inactive == level1.tolist()
    unit = "third" if build == "synth_three_hidden" else "second"
    assert str(info.value) == (
        f"prescribed knots stayed inactive, kept by no {unit}-layer unit: "
        f"{level1.tolist()}, cancelled by this final row: []"
    )
    net = unchecked(monkeypatch, NO_UNIT_BUILDS[build], level1, n1)
    assert net.widths[2] == 0
    spline = rs.dnn_to_spline(rs.ReluNetwork(net.layers))
    assert brute_force_missing(spline, level1).tolist() == level1.tolist()


class TestOneReportChannel:
    """A build reports through its result or ActivityError, never a warning."""

    def test_reference_build_is_silent(self):
        frozen = rs.load_json(Path(__file__).parent / "fixtures" / "three_hidden_network.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = rs.synth_three_hidden(fourteen_hierarchy())
        assert rs.network_to_obj(net) == frozen

    def test_uncovered_knot_is_reported_by_the_error_alone(self):
        # greedy selection leaves -4.0 uncovered; no unit keeps it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rs.ActivityError) as info:
                rs.synth_three_hidden(even_three_level(2, 2, 1))
        assert str(info.value).endswith(
            "kept by no third-layer unit: [-4.0], cancelled by this final row: []"
        )


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
    c_out=0.75, b_out=-2.0,
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
    "synth_two_hidden": {"a3", "c_out", "b_out"},
    "synth_two_hidden_no_source": {"seeds", "a3", "b_out"},
    "synth_three_hidden": {"eps", "a4", "c_out", "b_out"},
}


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
    def test_validation(self):
        two = BUILDS["synth_two_hidden"]
        no_source = BUILDS["synth_two_hidden_no_source"]
        three = BUILDS["synth_three_hidden"]
        # a zero a3 entry is used as given: the check names the knots it cancels
        cancelled = {two: [2.0, 5.0, 6.0, 8.0, 11.0], no_source: [3.0, 4.0, 6.0, 9.0]}
        for build, knots in cancelled.items():
            with pytest.raises(rs.ActivityError, match=re.escape(f"final row: {knots}") + "$"):
                build(a3=[1.0, 0.0])
        for build in (two, no_source):
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
        # a zero seed leaves its unit zero, so no unit keeps either knot
        with pytest.raises(rs.ActivityError, match=r"second-layer unit: \[1.0, 2.0\], cancelled"):
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


def spline_bits(s: rs.CplSpline) -> tuple:
    return (np.float64(s.q1).tobytes(), np.float64(s.q0).tobytes(), s.knots.tobytes(),
            s.coeffs.tobytes())


def gapped_flat_knots(rng: np.random.Generator, count: int) -> np.ndarray:
    """Knots on (-10, 10) whose gaps differ by at most a factor of 3."""
    gaps = rng.uniform(0.5, 1.5, count + 1)
    return -10.0 + 20.0 * np.cumsum(gaps)[:-1] / np.sum(gaps)


def handoff_sweep():
    """(label, build) pairs of every build, seeded: sizes that reach the bound,
    evenly spread and with random gaps, the fixtures, random hierarchies."""
    for n in (2, 3, 4, 5, 10):
        h = rs.hierarchy_from_flat(np.linspace(-10.0, 10.0, n + n * (n + 1)), n, n)
        yield f"two-{n}-even", lambda h=h: rs.synth_two_hidden(h)
    for n1, n2, n3 in ((3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6), (7, 7, 6)):
        h = even_three_level(n1, n2, n3)
        yield f"three-{n1}x{n2}x{n3}-even", lambda h=h: rs.synth_three_hidden(h)
    for seed in (1, 2):
        rng = np.random.default_rng([seed, 3])
        for copy in range(4):
            for n in range(2, 6):
                h = rs.hierarchy_from_flat(gapped_flat_knots(rng, n + n * (n + 1)), n, n)
                yield f"two-{n}-gaps-{seed}-{copy}", lambda h=h: rs.synth_two_hidden(h)
            for n1, n2, n3 in ((4, 4, 4), (5, 5, 5), (6, 6, 5)):
                count = n1 + n2 * (n1 + 1) + n3 * (n2 + 1)
                h = rs.hierarchy_from_flat(gapped_flat_knots(rng, count), n1, n2, n3)
                yield f"three-gaps-{seed}-{copy}", lambda h=h: rs.synth_three_hidden(h)
    yield "max15", lambda: rs.synth_two_hidden(max15_hierarchy())
    yield "fourteen", lambda: rs.synth_three_hidden(fourteen_hierarchy())
    yield "nine", lambda: rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2)
    rng = np.random.default_rng(163)
    for i in range(40):
        n1, n2, n3 = (int(v) for v in rng.integers(1, 5, 3))
        h = random_three_level(rng, n1, n2, n3)
        yield f"random-three-{i}", lambda h=h: rs.synth_three_hidden(h)
    for i in range(20):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        ks = random_flat_knots(rng, n1 * (n2 + 1))
        yield f"random-no-source-{i}", lambda ks=ks, n1=n1, n2=n2: (
            rs.synth_two_hidden_no_source(ks, n1, n2)
        )


class TestSplineHandOver:
    """A build hands dnn_to_spline the spline its check converted, and only that."""

    def test_handed_spline_is_a_fresh_conversion_bit_for_bit(self):
        built = raised = 0
        for label, build in handoff_sweep():
            try:
                net = build()
            except rs.ActivityError:
                raised += 1
                continue
            built += 1
            handed = rs.dnn_to_spline(net)
            assert rs.dnn_to_spline(net) is handed, label
            fresh = rs.dnn_to_spline(rs.ReluNetwork(net.layers))
            assert fresh is not handed, label
            assert spline_bits(handed) == spline_bits(fresh), label
        # two-10-even and some random three-level builds raise
        assert built >= 100 and raised >= 2

    def test_other_tolerances_convert_afresh(self):
        other = rs.Tolerances(zero_tol=1e-9, merge_tol=1e-12)
        for build in (BUILDS["synth_two_hidden"], BUILDS["synth_two_hidden_no_source"],
                      BUILDS["synth_three_hidden"]):
            net = build()
            handed = rs.dnn_to_spline(net)
            got = rs.dnn_to_spline(net, other)
            assert got is not handed and got is not rs.dnn_to_spline(net, other)
            fresh = rs.dnn_to_spline(rs.ReluNetwork(net.layers), other)
            assert spline_bits(got) == spline_bits(fresh)
            # a build under other tolerances hands over under those alone
            net = build(tol=other)
            assert rs.dnn_to_spline(net, other) is rs.dnn_to_spline(net, other)
            assert rs.dnn_to_spline(net) is not rs.dnn_to_spline(net)
            # an equal Tolerances, not only the same object, finds the spline
            assert rs.dnn_to_spline(net, rs.Tolerances(1e-9, 1e-12)) is rs.dnn_to_spline(
                net, other
            )

    def test_no_other_network_carries_a_spline(self):
        built = rs.synth_three_hidden(fourteen_hierarchy())
        for net in (
            net_max_knots(),
            rs.ReluNetwork(built.layers),
            dataclasses.replace(built),
            rs.network_from_obj(rs.network_to_obj(built)),
        ):
            first, second = rs.dnn_to_spline(net), rs.dnn_to_spline(net)
            assert first is not second
            assert spline_bits(first) == spline_bits(second)
        # the entry is no field: serialization sees the layers alone
        assert [f.name for f in dataclasses.fields(built)] == ["layers"]
        assert rs.network_to_obj(built) == rs.network_to_obj(rs.ReluNetwork(built.layers))


def unchecked(monkeypatch, build, *args):
    """The network a build computes, without its activity check."""
    with monkeypatch.context() as patched:
        patched.setattr(synth, "_checked", lambda net, hidden, wanted, tol: net)
        return build(*args)


def fresh_misses(net: rs.ReluNetwork, wanted) -> list:
    """Prescribed knots a fresh conversion of ``net`` misses, by brute force."""
    spline = rs.dnn_to_spline(rs.ReluNetwork(net.layers))
    return brute_force_missing(spline, np.asarray(wanted, dtype=float)).tolist()


class TestTwoHiddenFailsLoudly:
    """A two-hidden build whose spline misses prescribed knots raises."""

    def assert_raises_its_misses(self, monkeypatch, build, args, wanted):
        with pytest.raises(rs.ActivityError) as info:
            build(*args)
        net = unchecked(monkeypatch, build, *args)
        expected = fresh_misses(net, wanted)
        assert info.value.inactive == expected
        assert info.value.inactive == sorted(info.value.inactive)
        assert str(info.value) == miss_report(net.layers[:-1], np.array(expected), wanted)
        return len(expected), str(info.value)

    @pytest.mark.parametrize("n,missed", [(10, 6), (40, 452)])
    def test_positional_even_builds(self, monkeypatch, n, missed):
        h = rs.hierarchy_from_flat(np.linspace(-10.0, 10.0, n + n * (n + 1)), n, n)
        count, message = self.assert_raises_its_misses(
            monkeypatch, rs.synth_two_hidden, (h,), rs.prescribed_knots(h)
        )
        # construction misses: no final row would keep them
        assert count == missed and message.endswith("cancelled by this final row: []")

    @pytest.mark.parametrize("seed", range(20))
    def test_random_gap_twelve_by_twelve(self, monkeypatch, seed):
        h = rs.hierarchy_from_flat(gapped_flat_knots(np.random.default_rng(seed), 168), 12, 12)
        count, _ = self.assert_raises_its_misses(
            monkeypatch, rs.synth_two_hidden, (h,), rs.prescribed_knots(h)
        )
        assert count > 0

    def test_no_source_even_eight_by_eight(self, monkeypatch):
        ks = np.linspace(-10.0, 10.0, 72)
        count, message = self.assert_raises_its_misses(
            monkeypatch, rs.synth_two_hidden_no_source, (ks, 8, 8), ks
        )
        assert count == 1 and message.endswith("cancelled by this final row: []")

    @pytest.mark.parametrize("span,n", [(1e-8, 4), (3e-8, 40)])
    def test_knots_closer_than_twice_activity_tol(self, monkeypatch, span, n):
        # each prescribed knot needs a spline knot of its own, so a
        # neighbour's knot within ACTIVITY_TOL does not count for a lost one
        flat = np.linspace(0.0, span, n + n * (n + 1))
        h = rs.hierarchy_from_flat(flat, n, n)
        self.assert_raises_its_misses(monkeypatch, rs.synth_two_hidden, (h,), flat)
        ks = np.linspace(0.0, span, n * (n + 1))
        self.assert_raises_its_misses(monkeypatch, rs.synth_two_hidden_no_source, (ks, n, n), ks)


def affine_image(args, alpha: float, beta: float) -> tuple:
    """A build's arguments with its knots moved by t -> alpha t + beta."""
    first = args[0]
    if isinstance(first, rs.KnotHierarchy):
        level3 = None if first.level3 is None else alpha * first.level3 + beta
        first = rs.KnotHierarchy(alpha * first.level1 + beta, alpha * first.level2 + beta, level3)
    else:
        first = alpha * first + beta
    return (first, *args[1:])


def test_scaled_builds_keep_every_knot_or_raise(monkeypatch):
    # images of three prescriptions from spacing 1e-14 to 1e4: each build
    # returns a network whose spline realizes every prescribed knot one to
    # one, or raises naming what a fresh conversion misses; both happen
    rng = np.random.default_rng(5)
    builds = [
        (rs.synth_two_hidden, (random_two_level(rng, 3, 3),)),
        (rs.synth_three_hidden, (random_three_level(rng, 2, 2, 2),)),
        (rs.synth_two_hidden_no_source, (random_flat_knots(rng, 12), 3, 3)),
    ]
    outcomes = set()
    for build, args in builds:
        for alpha in 10.0 ** np.arange(-12, 7):
            for beta in (0.0, 3.0):
                image = affine_image(args, alpha, beta)
                first = image[0]
                wanted = first if build is rs.synth_two_hidden_no_source else rs.prescribed_knots(first)
                try:
                    net = build(*image)
                except rs.ActivityError as err:
                    assert err.inactive == fresh_misses(unchecked(monkeypatch, build, *image), wanted)
                    outcomes.add("raises")
                    continue
                assert brute_force_missing(rs.dnn_to_spline(net), wanted).size == 0
                outcomes.add("returns")
    assert outcomes == {"raises", "returns"}


def test_zero_weights_and_one_sign_seeds_reach_the_check(monkeypatch):
    # a3, a4 and seeds are used as given: builds with a zero entry, a zero
    # seed or seeds of one sign return with every knot realized or raise
    # ActivityError naming what a fresh conversion misses, never ValueError
    rng = np.random.default_rng(13)
    outcomes = set()
    for _ in range(40):
        n1, n2, n3 = (int(v) for v in rng.integers(1, 5, 3))
        signs = rng.choice([-1.0, 1.0], n2)
        zeroed = signs * rng.uniform(0.5, 2.0, n2)
        zeroed[rng.integers(n2)] = 0.0
        one_sign = signs[0] * (np.abs(zeroed) + 0.5)
        a4 = np.where(rng.uniform(size=n3) < 0.5, 0.0, rng.choice([-1.0, 1.0], n3))
        h, h3 = random_two_level(rng, n1, n2), random_three_level(rng, n1, n2, n3)
        ks = random_flat_knots(rng, n1 * (n2 + 1))
        no_source = (ks, n1, n2), ks
        for build, (args, wanted) in [
            (functools.partial(rs.synth_two_hidden, a3=zeroed), ((h,), rs.prescribed_knots(h))),
            (functools.partial(rs.synth_three_hidden, a4=a4), ((h3,), rs.prescribed_knots(h3))),
            (functools.partial(rs.synth_two_hidden_no_source, a3=zeroed), no_source),
            (functools.partial(rs.synth_two_hidden_no_source, seeds=zeroed), no_source),
            (functools.partial(rs.synth_two_hidden_no_source, seeds=one_sign), no_source),
        ]:
            try:
                net = build(*args)
            except rs.ActivityError as err:
                assert err.inactive == fresh_misses(unchecked(monkeypatch, build, *args), wanted)
                outcomes.add("raises")
                continue
            assert brute_force_missing(rs.dnn_to_spline(net), wanted).size == 0
            outcomes.add("returns")
    assert outcomes == {"raises", "returns"}


def miss_sweep():
    """(build, args, prescribed knots) of every build, seeded: n2 in {0, 1, 2},
    n1 and n3 random in 1..5, so that many builds miss."""
    rng = np.random.default_rng(5)
    for n2 in (0, 1, 2):
        for _ in range(20):
            n1, n3 = (int(v) for v in rng.integers(1, 6, 2))
            h = random_two_level(rng, n1, n2)
            yield rs.synth_two_hidden, (h,), rs.prescribed_knots(h)
            h = random_three_level(rng, n1, n2, n3)
            yield rs.synth_three_hidden, (h,), rs.prescribed_knots(h)
            ks = random_flat_knots(rng, n1 * (n2 + 1))
            yield rs.synth_two_hidden_no_source, (ks, n1, n2), ks


def test_every_miss_is_reported_by_the_conversion(monkeypatch):
    # .inactive is every knot a fresh conversion misses, and the kept-by-no-unit
    # group is what every last hidden unit's own conversion misses too
    misses = {}
    for build, args, wanted in miss_sweep():
        try:
            build(*args)
        except rs.ActivityError as err:
            net = unchecked(monkeypatch, build, *args)
            assert err.inactive == fresh_misses(net, wanted)
            assert str(err) == miss_report(net.layers[:-1], np.array(err.inactive), wanted)
            key = (build.__name__, net.widths[2], net.widths[1] > 1)
            misses[key] = misses.get(key, 0) + 1
    # every n2 = 0 and n2 = 1 < n1 build misses, among them three-hidden and
    # no-source ones (a single seed cannot change sign)
    assert misses[("synth_three_hidden", 1, True)] >= 10
    assert misses[("synth_three_hidden", 0, True)] >= 10
    assert misses[("synth_two_hidden_no_source", 0, True)] >= 10
    assert misses[("synth_two_hidden_no_source", 1, True)] >= 10
