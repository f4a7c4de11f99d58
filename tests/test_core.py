"""Core types: validation, canonical form, knot bound, piecewise form; and
rejections across the package that no other test reaches."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relusplines as rs
from relusplines.cli import main
from relusplines.transfer import _relu_hinges

from helpers import net_max_knots


class TestTolerances:
    def test_defaults(self):
        tol = rs.Tolerances()
        assert tol.zero_tol == 1e-10
        assert tol.merge_tol == 1e-12
        # equality verdicts take their tolerance where they are made (verify's --tol-eval)
        assert [field.name for field in dataclasses.fields(tol)] == ["zero_tol", "merge_tol"]

    @pytest.mark.parametrize("bad", [dict(zero_tol=0.0), dict(merge_tol=-1e-3)])
    def test_positive_required(self, bad):
        with pytest.raises(ValueError):
            rs.Tolerances(**bad)

    @pytest.mark.parametrize("name", ["zero_tol", "merge_tol"])
    def test_finite_required(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            rs.Tolerances(**{name: np.inf})

    def test_merge_must_not_exceed_zero(self):
        with pytest.raises(ValueError):
            rs.Tolerances(zero_tol=1e-12, merge_tol=1e-10)
        rs.Tolerances(zero_tol=1e-10, merge_tol=1e-10)  # equality is allowed


class TestNetworkTypes:
    def test_widths_and_depth(self):
        net = net_max_knots()
        assert net.widths == (1, 3, 3, 1)
        assert net.depth == 3

    def test_layer_shape_checks(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.Layer(np.ones((2, 2)), np.ones(3))
        with pytest.raises(rs.DimensionMismatchError):
            rs.Layer(np.ones((2, 2)), np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            rs.Layer(np.array([[np.nan]]), np.ones(1))

    def test_network_chain_checks(self):
        l1 = rs.Layer(np.ones((2, 1)), np.zeros(2))
        out = rs.Layer(np.ones((1, 3)), np.zeros(1), np.zeros(1))
        with pytest.raises(rs.DimensionMismatchError):
            rs.ReluNetwork((l1, out))
        with pytest.raises(rs.DimensionMismatchError):
            rs.ReluNetwork((l1,))
        # missing source channel on layer 2
        with pytest.raises(rs.DimensionMismatchError):
            rs.ReluNetwork((l1, rs.Layer(np.ones((1, 2)), np.zeros(1))))
        # source channel on layer 1
        bad_first = rs.Layer(np.ones((2, 1)), np.zeros(2), np.zeros(2))
        with pytest.raises(rs.DimensionMismatchError):
            rs.ReluNetwork((bad_first, rs.Layer(np.ones((1, 2)), np.zeros(1), np.zeros(1))))

    def test_arrays_are_read_only(self):
        net = net_max_knots()
        with pytest.raises(ValueError):
            net.layers[0].A[0, 0] = 2.0
        s = rs.CplSpline(0.0, 0.0, [1.0], [1.0])
        with pytest.raises(ValueError):
            s.knots[0] = 2.0

    def test_shallow_factory(self):
        net = rs.ReluNetwork.shallow([1.0, -1.0], [0.0, 1.0], [2.0, 3.0], c2=0.5, b2=-1.0)
        assert net.widths == (1, 2, 1)
        # 0.5 t - 1 + 2 relu(t) + 3 relu(-t + 1) at t = 1
        assert rs.eval_network(net, 1.0) == pytest.approx(1.5)


class TestCplSpline:
    def test_length_mismatch(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.CplSpline(0.0, 0.0, [1.0, 2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rs.CplSpline(np.inf, 0.0, [], [])
        with pytest.raises(ValueError):
            rs.CplSpline(0.0, 0.0, [np.nan], [1.0])

    def test_is_canonical(self):
        assert rs.CplSpline(0.0, 0.0, [0.0, 1.0], [1.0, -1.0]).is_canonical()
        assert not rs.CplSpline(0.0, 0.0, [1.0, 0.0], [1.0, 1.0]).is_canonical()
        assert not rs.CplSpline(0.0, 0.0, [0.0], [1e-12]).is_canonical()


class TestMergeGroups:
    def test_a_chain_is_one_group(self):
        coords = np.array([3.0, 1.0 + 1.2e-12, 1.0, 1.0 + 0.6e-12])
        order, first, at = rs.core._merge_groups(coords, 0, 1e-12)
        assert order.tolist() == [2, 3, 1, 0]
        assert first.tolist() == [0, 3] and at.tolist() == [1.0, 3.0]

    def test_first_original_sets_the_coordinate(self):
        # sorted: 0 (new), 5e-13 (original 1), 1e-12 (original 0), 2 (new)
        coords = np.array([1e-12, 5e-13, 0.0, 2.0])
        for n_old, where in ((2, 5e-13), (1, 1e-12), (0, 0.0)):
            _, first, at = rs.core._merge_groups(coords, n_old, 1e-12)
            assert first.tolist() == [0, 3] and at.tolist() == [where, 2.0]

    def test_equal_infinite_coordinates_stay_apart(self):
        # the gap between two equal infinities is NaN, which is no merge
        coords = np.array([np.inf, 0.0, -np.inf, np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            order, first, at = rs.core._merge_groups(coords, 5, 1e-12)
        assert order.tolist() == [2, 4, 1, 0, 3]
        assert first.tolist() == [0, 1, 2, 3, 4]
        assert at.tolist() == [-np.inf, -np.inf, 0.0, np.inf, np.inf]

    def test_no_coordinates(self):
        order, first, at = rs.core._merge_groups(np.empty(0), 0, 1e-12)
        assert order.size == first.size == at.size == 0


class TestCanonicalize:
    def test_cancelling_duplicates_vanish(self):
        s = rs.canonicalize(rs.CplSpline(0.0, 0.0, [1.0, 1.0], [2.0, -2.0]))
        assert s.n_knots == 0

    def test_tiny_coefficients_dropped(self):
        s = rs.canonicalize(rs.CplSpline(0.0, 0.0, [1.0, 2.0, 3.0], [1e-15, 5.0, -3.0]))
        assert s.knots.tolist() == [2.0, 3.0]
        assert s.coeffs.tolist() == [5.0, -3.0]

    def test_sorts_unordered_input(self):
        s = rs.canonicalize(rs.CplSpline(1.0, 2.0, [3.0, 1.0, 2.0], [1.0, 2.0, 3.0]))
        assert s.knots.tolist() == [1.0, 2.0, 3.0]
        assert s.coeffs.tolist() == [2.0, 3.0, 1.0]

    def test_merge_keeps_first_coordinate(self):
        tol = rs.Tolerances(zero_tol=1e-5, merge_tol=1e-6)
        s = rs.canonicalize(rs.CplSpline(0.0, 0.0, [1.0, 1.0 + 1e-7], [1.0, 1.0]), tol)
        assert s.knots.tolist() == [1.0]
        assert s.coeffs.tolist() == [2.0]

    def test_idempotent_bit_for_bit(self):
        rng = np.random.default_rng(7)
        raw = rs.CplSpline(
            0.3, -0.7, rng.uniform(-5, 5, 30), rng.uniform(-1, 1, 30) * 1e-9
        )
        once = rs.canonicalize(raw)
        twice = rs.canonicalize(once)
        assert once.knots.tolist() == twice.knots.tolist()
        assert once.coeffs.tolist() == twice.coeffs.tolist()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_value_preservation_property(self, data):
        # knots close together and coefficients straddling the drop threshold
        n = data.draw(st.integers(1, 8))
        base = data.draw(
            st.lists(st.floats(-4, 4, allow_nan=False), min_size=n, max_size=n)
        )
        knots = np.sort(np.array(base))
        coeffs = np.array(
            data.draw(
                st.lists(
                    st.one_of(
                        st.floats(0.1, 2.0),
                        st.floats(-2.0, -0.1),
                        st.just(0.0),
                        st.floats(-1e-12, 1e-12),
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        raw = rs.CplSpline(0.5, -0.25, knots, coeffs)
        out = rs.canonicalize(raw)
        grid = rs.probe_grid(np.unique(knots))
        before = rs.eval_spline(raw, grid)
        after = rs.eval_spline(out, grid)
        budget = rs.DEFAULT_TOL.zero_tol * (1.0 + float(np.sum(np.abs(coeffs))))
        assert np.max(np.abs(before - after)) <= budget


def looped_canonicalize(spline: rs.CplSpline, tol=rs.DEFAULT_TOL) -> rs.CplSpline:
    """Reference: walk the sorted knots group by group."""
    order = np.argsort(spline.knots, kind="stable")
    xs, cs = spline.knots[order], spline.coeffs[order]
    out_x, out_c = [], []
    i, n = 0, xs.shape[0]
    while i < n:
        j = i + 1
        while j < n and xs[j] - xs[j - 1] <= tol.merge_tol:
            j += 1
        coeff = cs[i] if j == i + 1 else float(np.sum(cs[i:j]))
        if abs(coeff) > tol.zero_tol:
            out_x.append(float(xs[i]))
            out_c.append(float(coeff))
        i = j
    return rs.CplSpline(spline.q1, spline.q0, np.array(out_x), np.array(out_c))


class TestCanonicalizeMatchesLoop:
    def assert_same_bits(self, raw, tol=rs.DEFAULT_TOL):
        got, want = rs.canonicalize(raw, tol), looped_canonicalize(raw, tol)
        assert got.knots.tobytes() == want.knots.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert (got.q1, got.q0) == (want.q1, want.q0)

    def test_empty_spline(self):
        self.assert_same_bits(rs.CplSpline(1.5, -2.0, [], []))

    def test_ties_chains_and_zero_sum_groups(self):
        # repeated knots, chains of near-duplicates within merge_tol (about a
        # tenth of the groups have 8 or more knots, where np.sum sums pairwise),
        # groups that cancel exactly, and coefficients straddling zero_tol
        rng = np.random.default_rng(107)
        tol = rs.DEFAULT_TOL
        for _ in range(300):
            n = int(rng.integers(0, 60))
            base = rng.choice([-2.0, 0.0, 1.0, 3.5], n) + rng.integers(0, 2, n) * 0.5
            knots = base + rng.integers(0, 8, n) * 0.4 * tol.merge_tol
            coeffs = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-12, 3, n)
            coeffs[rng.uniform(size=n) < 0.1] = 0.0
            if n >= 2:
                knots[1], coeffs[1] = knots[0], -coeffs[0]
            order = rng.permutation(n)
            self.assert_same_bits(rs.CplSpline(0.3, -0.7, knots[order], coeffs[order]))

    def test_zero_sum_group_vanishes(self):
        raw = rs.CplSpline(0.0, 0.0, [1.0, 1.0, 1.0, 2.0], [0.5, 0.25, -0.75, 1.0])
        assert rs.canonicalize(raw).knots.tolist() == [2.0]
        self.assert_same_bits(raw)


class TestKnotBound:
    @pytest.mark.parametrize(
        "widths,expected",
        [((1, 3, 3, 1), 15), ((1, 2, 2, 2, 1), 26), ((1, 4, 1), 4), ((1, 1, 1), 1)],
    )
    def test_values(self, widths, expected):
        assert rs.knot_bound(widths) == expected

    def test_rejects_bad_chains(self):
        with pytest.raises(rs.DimensionMismatchError):
            rs.knot_bound((1, 1))
        with pytest.raises(rs.DimensionMismatchError):
            rs.knot_bound((2, 3, 1))

    def test_widths_are_integers(self):
        # 2.5 used to be read as 2
        with pytest.raises(TypeError):
            rs.knot_bound([1, 2.5, 1])
        assert rs.knot_bound(np.array([1, 2, 1])) == 2

    def test_upper_bound_not_reached_by_deep_width_one_chains(self):
        # the bound is attained with one and two hidden layers, not always
        # deeper: random (1, 1, 1, 1, 1) networks stay at 5 knots of 7
        assert rs.knot_bound((1, 1, 1, 1, 1)) == 7
        rng = np.random.default_rng(211)
        most = 0
        for _ in range(1500):
            w = rng.normal(size=(4, 3))
            first = rs.Layer([[w[0, 0]]], [w[0, 1]])
            rest = tuple(rs.Layer([[w[i, 0]]], [w[i, 1]], [w[i, 2]]) for i in range(1, 4))
            most = max(most, rs.dnn_to_spline(rs.ReluNetwork((first,) + rest)).n_knots)
        assert 3 <= most <= 5


def layer_step_form(s: rs.CplSpline):
    """The layer step's slopes and intercepts of ``s``, a one-member bundle."""
    bundle = rs.SplineBundle(s.knots, [s.q1], [s.q0], s.coeffs.reshape(1, -1))
    mu, eta, *_ = _relu_hinges(bundle, rs.DEFAULT_TOL)
    return mu[0], eta[0]


class TestPiecewiseForm:
    def test_recursions(self):
        s = rs.CplSpline(1.0, -0.5, [1.0, 2.0, 3.0], [-2.0, 2.0, -3.0])
        mu, eta = layer_step_form(s)
        assert mu.tolist() == [1.0, -1.0, 1.0, -2.0]
        # continuity at every knot: both adjacent pieces give the same value
        for v, x in enumerate(s.knots):
            left = mu[v] * x + eta[v]
            right = mu[v + 1] * x + eta[v + 1]
            assert left == pytest.approx(right, abs=1e-12)

    def test_jumps_reconstruct_dyadic_coefficients_exactly(self):
        coeffs = np.array([0.5, -0.25, 1.5, -2.0])
        s = rs.CplSpline(0.75, -1.5, [0.0, 1.0, 2.0, 3.0], coeffs)
        mu, _ = layer_step_form(s)
        assert np.diff(mu).tolist() == coeffs.tolist()


class TestKnotHierarchy:
    def test_two_level_round_trip(self):
        h = rs.KnotHierarchy([0.0], [[-1.0, 1.0], [-2.0, 2.0]])
        assert h.n1 == 1 and h.n2 == 2 and h.n3 == 0

    def test_unordered_cells_allowed(self):
        # containment is required, ordering across units within a cell is not
        rs.KnotHierarchy([0.0], [[-1.0, 1.0], [-2.0, 2.0]])

    def test_containment_enforced(self):
        with pytest.raises(rs.InterlacingError):
            rs.KnotHierarchy([0.0, 1.0], [[-1.0, 0.5, 2.0], [-2.0, 1.5, 3.0]])
        with pytest.raises(rs.InterlacingError):
            rs.KnotHierarchy([0.0], [[-1.0, 1.0], [-1.0, 2.0]])

    def test_level1_sorted(self):
        with pytest.raises(rs.InterlacingError):
            rs.KnotHierarchy([1.0, 0.0], [[-1.0, 0.5, 2.0], [-0.5, 0.7, 3.0]])

    def test_level3_walls(self):
        h = rs.hierarchy_from_flat(np.arange(1.0, 15.0), 2, 2, 2)
        assert h.level3.tolist() == [[1.0, 4.0, 7.0], [2.0, 5.0, 8.0]]
        bad3 = np.array([[1.0, 4.0, 9.5], [2.0, 5.0, 8.0]])
        with pytest.raises(rs.InterlacingError):
            rs.KnotHierarchy(h.level1, h.level2, bad3)

    def test_level3_needs_sorted_walls(self):
        with pytest.raises(rs.InterlacingError):
            rs.KnotHierarchy(
                [9.0, 12.0],
                [[6.0, 10.0, 13.0], [3.0, 11.0, 14.0]],
                [[1.0, 4.0, 7.0], [2.0, 5.0, 8.0]],
            )


def looped_check_cell(values, lo, hi, what):
    """Reference: one cell's containment, then distinctness."""
    v = np.sort(np.asarray(values, float))
    if np.any(v <= lo) or np.any(v >= hi):
        raise rs.InterlacingError(f"{what} must lie strictly inside ({lo}, {hi})")
    if np.any(np.diff(v) <= 0):
        raise rs.InterlacingError(f"{what} must be pairwise distinct")


def looped_interlacing(level1, level2, level3):
    """Reference: KnotHierarchy's nesting checks, column by column."""
    if np.any(np.diff(level1) <= 0):
        raise rs.InterlacingError("level1 knots must be strictly increasing")
    bounds = np.concatenate(([-np.inf], level1, [np.inf]))
    for v in range(level2.shape[1]):
        looped_check_cell(level2[:, v], bounds[v], bounds[v + 1], f"level-2 column {v}")
    if level3 is not None:
        col0 = level2[:, 0]
        if np.any(np.diff(col0) <= 0):
            raise rs.InterlacingError(
                "level2 first column must be increasing when level3 is present"
            )
        walls = np.concatenate(([-np.inf], col0, [level1[0]]))
        for j in range(level3.shape[1]):
            looped_check_cell(level3[:, j], walls[j], walls[j + 1], f"level-3 column {j}")


def outcome(check, *levels):
    try:
        check(*levels)
    except ValueError as err:
        return type(err), str(err)
    return None


class TestKnotHierarchyMatchesLoop:
    def corrupt(self, rng, level, other):
        """Move, duplicate or pin one entry of ``level`` (rows are units)."""
        level = level.copy()
        r, v = rng.integers(level.shape[0]), rng.integers(level.shape[1])
        kind = rng.integers(4)
        if kind == 0:
            level[r, v] = level[rng.integers(level.shape[0]), rng.integers(level.shape[1])]
        elif kind == 1:
            level[r, v] = rng.choice(other)
        elif kind == 2:
            level[r, v] = rng.uniform(-60.0, 60.0)
        else:
            level[:, v] = rng.permutation(level[:, v])
        return level

    def test_random_hierarchies(self):
        rng = np.random.default_rng(163)
        raised = 0
        for _ in range(1500):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            n3 = None if rng.uniform() < 0.4 else int(rng.integers(1, 5))
            count = n1 + n2 * (n1 + 1) + (0 if n3 is None else n3 * (n2 + 1))
            h = rs.hierarchy_from_flat(np.cumsum(rng.uniform(0.1, 3.0, count)) - 20.0, n1, n2, n3)
            level1, level2, level3 = h.level1, h.level2, h.level3
            everything = rs.prescribed_knots(h)
            for _ in range(int(rng.integers(0, 3))):
                if level3 is not None and rng.uniform() < 0.5:
                    level3 = self.corrupt(rng, level3, everything)
                else:
                    level2 = self.corrupt(rng, level2, everything)
            if rng.uniform() < 0.1:
                level1 = level1[::-1]
            want = outcome(looped_interlacing, level1, level2, level3)
            assert outcome(rs.KnotHierarchy, level1, level2, level3) == want
            raised += want is not None
        assert 300 < raised < 1200



def _cli_synth(tmp_path, obj, *flags):
    """Exit code and stderr of ``relusplines synth`` on a file FILE holding obj."""
    path = tmp_path / "knots.json"
    rs.dump_json(path, obj)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["synth", str(path), "-o", str(tmp_path / "net.json"), *flags])
    return code, err.getvalue().strip().replace(str(path), "FILE")


def _layers(*specs):
    return rs.ReluNetwork(tuple(rs.Layer(*spec) for spec in specs))


FLAT = {"knots": [1.0, 2.0, 3.0, 4.0, 5.0]}
# each rejection, with the exception and message (or the exit code and
# stderr, or the verdict) it must give
REJECTIONS = {
    "knot_bound-negative-width": (
        lambda _: rs.knot_bound((1, -1, 1)),
        (rs.DimensionMismatchError, "widths must be non-negative"),
    ),
    "network-non-scalar-input": (
        lambda _: _layers(([[1.0, 1.0]], [0.0]), ([[1.0]], [0.0], [0.0])),
        (rs.DimensionMismatchError, "layer 1 must take a scalar input"),
    ),
    "network-non-scalar-output": (
        lambda _: _layers(([[1.0]], [0.0]), ([[1.0], [1.0]], [0.0, 0.0], [0.0, 0.0])),
        (rs.DimensionMismatchError, "the last layer must produce a scalar"),
    ),
    "bundle-q1s-q0s-lengths": (
        lambda _: rs.SplineBundle([0.0], [1.0, 1.0], [0.0], [[1.0], [1.0]]),
        (rs.DimensionMismatchError, "q1s/q0s length must match coeff_matrix rows"),
    ),
    "bundle-column-count": (
        lambda _: rs.SplineBundle([0.0, 1.0], [1.0], [0.0], [[1.0]]),
        (rs.DimensionMismatchError, "coeff_matrix columns must match knot count"),
    ),
    "hierarchy-empty-level1": (
        lambda _: rs.KnotHierarchy([], np.empty((1, 1))),
        (rs.InterlacingError, "level1 needs at least one knot"),
    ),
    "hierarchy-level2-shape": (
        lambda _: rs.KnotHierarchy([0.0], [[-1.0, 1.0, 2.0]]),
        (rs.DimensionMismatchError, "level2 must have shape (n2, 2), got (1, 3)"),
    ),
    "hierarchy-level3-shape": (
        lambda _: rs.KnotHierarchy([0.0], [[-2.0, 1.0], [-1.0, 2.0]], [[-3.0, -1.5]]),
        (rs.DimensionMismatchError, "level3 must have shape (n3, 3), got (1, 2)"),
    ),
    "array-ndim": (
        lambda _: rs.CplSpline(0.0, 0.0, [[0.0]], [1.0]),
        (rs.DimensionMismatchError, "knots must be 1-dimensional, got shape (1, 1)"),
    ),
    "flat-knots-non-finite": (
        lambda _: rs.hierarchy_from_flat([0.0, np.nan, 2.0], 1, 1),
        (ValueError, "knots contains non-finite entries"),
    ),
    "is_normalized-interior-channel": (
        lambda _: rs.is_normalized(
            _layers(([[1.0]], [0.0]), ([[1.0]], [0.0], [0.5]), ([[1.0]], [0.0], [0.0]))
        ),
        False,
    ),
    "loader-matrix-not-list": (
        lambda _: rs.network_from_obj({"widths": [1, 1], "layers": [{"A": 1.0, "b": [0.0]}]}),
        (rs.SchemaError, "layers[0].A must be a list of rows"),
    ),
    "loader-not-object": (
        lambda _: rs.spline_from_obj([0.0, 1.0]),
        (rs.SchemaError, "spline must be an object"),
    ),
    "loader-layers-not-list": (
        lambda _: rs.network_from_obj({"widths": [1, 1], "layers": {}}),
        (rs.SchemaError, "layers must be a list"),
    ),
    "cli-synth-arch-count": (
        lambda tmp: _cli_synth(tmp, FLAT, "--arch", "1,1,1,1"),
        (2, "error: --arch must be n1,n2 or n1,n2,n3"),
    ),
    "cli-synth-no-source-arch-count": (
        lambda tmp: _cli_synth(tmp, FLAT, "--arch", "1,1,1", "--no-source"),
        (2, "error: --no-source takes --arch n1,n2"),
    ),
    "cli-synth-neither-format": (
        lambda tmp: _cli_synth(tmp, {"widths": [1, 1]}, "--arch", "1,1"),
        (2, "error: FILE: neither a hierarchy (level1) nor flat (knots)"),
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection(case, tmp_path):
    call, expected = REJECTIONS[case]
    try:
        got = call(tmp_path)
    except Exception as err:
        got = (type(err), str(err))
    assert got == expected
