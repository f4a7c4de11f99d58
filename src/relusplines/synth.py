"""Networks with prescribed breakpoints.

The constructions run the layer calculus in reverse.  Given nested knot
levels, per-interval slopes are fixed by a ratio recursion (consecutive
zeros pin each affine piece), weights are slope differences, and source
channels and biases make every piece vanish where prescribed.  The
three-hidden-layer build additionally selects per-unit signs eps so that
at every lower-level knot at least one third-layer unit is positive,
keeping the knot alive through the last ReLU.

Every step works on whole bundles.  The slope recursion runs over
intervals for all units at once.  The three-hidden build converts its
first three layers once, as ``dnn_to_spline`` does: the knotless bundle
of the layer-1 units, then one ``layer_transfer`` step each for layers 2
and 3.  Unit values and slopes at the lower-level knots (for the signs)
are read off that layer-3 bundle, and flipping its rows by eps gives the
returned network's layer-3 bundle bit for bit.  The output row enters
linearly, so one step of that bundle through the final ``Layer`` (the last
step of ``dnn_to_spline`` on the returned network) decides activity once.

Index convention: unit/knot positions in error messages and subsets (for
example ``redundancy_residual``'s ``index_set``) are 0-based.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    ACTIVITY_TOL,
    DEFAULT_TOL,
    ActivityError,
    CoverageError,
    CplSpline,
    DimensionMismatchError,
    InterlacingError,
    KnotHierarchy,
    Layer,
    ReluNetwork,
    SplineBundle,
    Tolerances,
    _finite_float,
    _frozen_array,
)
from .evaluate import eval_bundle
# dnn_to_spline is not called here; bench/selftest.py reaches it as synth.dnn_to_spline
from .transfer import _unit_bundle, dnn_to_spline, layer_transfer  # noqa: F401

__all__ = [
    "synth_two_hidden",
    "synth_two_hidden_no_source",
    "redundancy_residual",
    "synth_three_hidden",
    "epsilon_select",
    "hierarchy_from_flat",
    "prescribed_knots",
]


def _slope_rows(c_signs, x, zeros) -> np.ndarray:
    """Per-interval slopes of units with the given zeros and source signs.

    Row r of ``zeros`` holds unit r's zeros, one per interval of x (end
    intervals included), already interlaced as
    zeros[r, v-1] < x[v-1] < zeros[r, v].  Slopes start at c_signs[r] and
    follow mu[v] = mu[v-1] (x[v-1] - zeros[r, v-1]) / (x[v-1] - zeros[r, v]),
    so they alternate in sign and every piece crosses zero exactly where
    prescribed.  Hinge weights are the slope differences along each row.
    """
    mu = np.empty(zeros.shape)
    mu[:, 0] = c_signs
    for v in range(1, mu.shape[1]):
        mu[:, v] = mu[:, v - 1] * (x[v - 1] - zeros[:, v - 1]) / (x[v - 1] - zeros[:, v])
    return mu


def _per_unit(value, default, n: int, name: str):
    """A per-unit parameter: ``default`` when None, else finite, 1-D and n long."""
    if value is None:
        return default
    value = _frozen_array(value, ndim=1, name=name)
    if value.shape[0] != n:
        raise DimensionMismatchError(f"{name} must have length {n}")
    return value


def _nonzero(values: np.ndarray, what: str) -> np.ndarray:
    if np.any(values == 0):
        raise ValueError(f"{what} must be nonzero")
    return values


def _refuse_single_unit(h: KnotHierarchy) -> None:
    """With n2 = 1 and n1 > 1 no unit is positive at the even-position level-1 knots."""
    if h.n2 == 1 and h.n1 > 1:
        raise ActivityError(
            "a single second-layer unit cannot keep the even-position level-1 knots "
            f"{h.level1[1::2].tolist()} active",
            h.level1[1::2],
        )


def _two_hidden_layers(h: KnotHierarchy) -> tuple[Layer, Layer]:
    """Layers 1 and 2 shared by both deep builds (source signs alternate)."""
    c_signs = np.where(np.arange(1, h.n2 + 1) % 2 == 1, 1.0, -1.0)
    a2 = np.diff(_slope_rows(c_signs, h.level1, h.level2), axis=1)
    return Layer(np.ones((h.n1, 1)), -h.level1), Layer(a2, -h.level2[:, 0] * c_signs, c_signs)


def synth_two_hidden(
    h: KnotHierarchy,
    *,
    a3=None,
    plus_variant: bool = True,
    c_out: float = 0.0,
    b_out: float = 0.0,
) -> ReluNetwork:
    """Width (1, n1, n2, 1) network whose active knots are exactly level1+level2.

    Source signs alternate (+1 on unit 1), biases put each unit's first
    zero where prescribed, and the output row's signs alternate the other
    way so contributions at shared knots never cancel.  ``a3`` (n2 nonzero
    entries, default ones) gives the output row's magnitudes, whose signs
    the build fixes; ``plus_variant=False`` flips the row.  ``c_out`` and
    ``b_out`` are the final layer's source weight and bias.  The guarantee
    needs two units: n2 = 1 with n1 > 1 raises ActivityError listing the
    even-position level-1 knots, where no unit is positive.
    """
    c_out, b_out = _finite_float(c_out, "c_out"), _finite_float(b_out, "b_out")
    if h.level3 is not None:
        raise ValueError("two-hidden synthesis takes a two-level hierarchy")
    _refuse_single_unit(h)
    magnitudes = np.abs(_nonzero(_per_unit(a3, np.ones(h.n2), h.n2, "a3"), "a3 entries"))
    sign = 1.0 if plus_variant else -1.0
    row = sign * np.where(np.arange(1, h.n2 + 1) % 2 == 0, 1.0, -1.0) * magnitudes
    return ReluNetwork((*_two_hidden_layers(h), Layer(row.reshape(1, h.n2), [b_out], [c_out])))


def _flat_knots(knots, expected: int, widths: tuple) -> np.ndarray:
    """A flat knot list as floats: finite, ``expected`` long, strictly increasing.

    ``widths`` are the hidden widths the list is arranged for; none may be
    negative.
    """
    shape = ", ".join(map(str, widths))
    if min(widths) < 0:
        raise ValueError(f"widths must be non-negative, got ({shape})")
    ks = np.atleast_1d(np.asarray(knots, dtype=float))
    if not np.all(np.isfinite(ks)):
        raise ValueError("knots contain non-finite entries")
    if ks.shape[0] != expected:
        raise DimensionMismatchError(
            f"expected {expected} knots for widths ({shape}), got {ks.shape[0]}"
        )
    if np.any(np.diff(ks) <= 0):
        raise InterlacingError("knots must be strictly increasing and distinct")
    return ks


def synth_two_hidden_no_source(
    knots, n1: int, n2: int, *, seeds=None, a3=None, b_out: float = 0.0
) -> ReluNetwork:
    """Prescribed-knot network with every source channel equal to zero.

    Takes a flat strictly increasing list of n1 (n2 + 1) knots, n1 >= 1,
    read in blocks [x_k, zeros of unit 1..n2 in (x_k, x_{k+1})].  Without a
    source channel each unit is constant left of x_1, so there are no knots
    there; ``seeds`` (n2 nonzero entries) sets the first-interval slopes
    (default alternating -1, +1, ...), which must change sign somewhere
    when n1 > 1.  ``a3`` (n2 nonzero entries) is the signed output row
    (default ones) and ``b_out`` the final bias; the final source weight
    is zero like every other.
    """
    b_out = _finite_float(b_out, "b_out")
    if n1 < 1:
        raise InterlacingError(f"level 1 needs at least one knot, got n1 = {n1}")
    blocks = _flat_knots(knots, n1 * (n2 + 1), (n1, n2)).reshape(n1, n2 + 1)
    x1, zeros = blocks[:, 0], blocks[:, 1:].T
    seeds = _per_unit(seeds, np.where(np.arange(1, n2 + 1) % 2 == 1, -1.0, 1.0), n2, "seeds")
    _nonzero(seeds, "seeds")
    if n1 > 1 and (np.all(seeds > 0) or np.all(seeds < 0)):
        raise ValueError("seeds need at least one sign change when n1 > 1")
    # the slope recursion from interval 1 on, where the zeros interlace x1[1:]
    mu = np.zeros((n2, n1 + 1))
    mu[:, 1:] = _slope_rows(seeds, x1[1:], zeros)
    a2 = np.diff(mu, axis=1)
    b2 = seeds * (x1[0] - zeros[:, 0])
    row = _nonzero(_per_unit(a3, np.ones(n2), n2, "a3"), "a3 entries")
    return ReluNetwork(
        (
            Layer(np.ones((n1, 1)), -x1),
            Layer(a2, b2, np.zeros(n2)),
            Layer(row.reshape(1, n2), [b_out], np.zeros(1)),
        )
    )


def redundancy_residual(h: KnotHierarchy, index_set, j: int) -> float:
    """How far unit j is from the no-source breakpoint relation.

    ``index_set`` selects level-1 knot positions (0-based, a nonempty
    proper subset).  The residual is sum over the set of ratio products up
    to each selected knot (exclusive) minus 1 minus the same sum inclusive;
    it vanishes exactly when the unit's zeros could also be realized with a
    zero source weight.
    """
    x = h.level1
    row = h.level2[j]
    chosen = sorted(set(int(k) for k in index_set))
    if not chosen or len(chosen) >= h.n1 or chosen[0] < 0 or chosen[-1] >= h.n1:
        raise ValueError("index_set must be a nonempty proper subset of range(n1)")
    ratios = (x - row[:-1]) / (x - row[1:])
    products = np.concatenate(([1.0], np.cumprod(ratios)))
    exclusive = sum(products[k] for k in chosen)
    inclusive = sum(products[k + 1] for k in chosen)
    return float(exclusive - 1.0 - inclusive)


def epsilon_select(values, zero_cover=None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Greedy +-1 signs so every column is positive for some row.

    ``values[r, i]`` is third-layer unit r at knot i with sign +1; flipping
    the sign flips the row.  Each step picks the sign covering more of the
    still-uncovered columns (ties go to +1), which is at least half of
    them.  Entries within zero_tol of zero are decided by ``zero_cover``,
    a (plus_ok, minus_ok) pair of boolean matrices (default: either sign
    covers).  Raises CoverageError if columns remain uncovered.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n_units, n_cols = values.shape
    if zero_cover is None:
        plus_ok = np.ones_like(values, dtype=bool)
        minus_ok = np.ones_like(values, dtype=bool)
    else:
        plus_ok, minus_ok = (np.atleast_2d(np.asarray(m, bool)) for m in zero_cover)
        if plus_ok.shape != values.shape or minus_ok.shape != values.shape:
            raise DimensionMismatchError("zero_cover masks must match the value matrix")
    zeroish = np.abs(values) <= tol.zero_tol
    covers_plus = (values > tol.zero_tol) | (zeroish & plus_ok)
    covers_minus = (values < -tol.zero_tol) | (zeroish & minus_ok)
    eps = np.empty(n_units)
    uncovered = np.ones(n_cols, dtype=bool)
    for r in range(n_units):
        gain_plus = np.count_nonzero(uncovered & covers_plus[r])
        gain_minus = np.count_nonzero(uncovered & covers_minus[r])
        if gain_minus > gain_plus:
            eps[r] = -1.0
            uncovered &= ~covers_minus[r]
        else:
            eps[r] = 1.0
            uncovered &= ~covers_plus[r]
    if np.any(uncovered):
        raise CoverageError(
            f"no sign choice covers knot columns {np.flatnonzero(uncovered).tolist()}",
            np.flatnonzero(uncovered),
            partial=eps,
        )
    return eps


def prescribed_knots(h: KnotHierarchy) -> np.ndarray:
    """All knots of the hierarchy, sorted ascending."""
    parts = [h.level1, h.level2.ravel()]
    if h.level3 is not None:
        parts.append(h.level3.ravel())
    return np.sort(np.concatenate(parts))


def _missing_prescribed(spline: CplSpline, prescribed, tol: Tolerances) -> np.ndarray:
    """Prescribed knots with no active knot within the activity tolerance.

    The nearest active knot is one of the two sorted neighbours, and
    rounding |p - x| is monotone in x, so checking both gives the minimum
    over all active knots bit for bit.
    """
    active = np.sort(spline.knots[np.abs(spline.coeffs) > tol.zero_tol])
    fenced = np.concatenate(([-np.inf], active, [np.inf]))
    prescribed = np.asarray(prescribed, dtype=float)
    right = np.searchsorted(fenced, prescribed)
    # fenced[right - 1] < p <= fenced[right], so both gaps are non-negative
    gaps = np.minimum(prescribed - fenced[right - 1], fenced[right] - prescribed)
    return prescribed[gaps > ACTIVITY_TOL]


def _zero_sign_masks(bundle: SplineBundle, targets: np.ndarray, tol: Tolerances):
    """Which sign keeps a hinge alive at a zero-valued target, per unit.

    At a knot where a unit vanishes exactly, the composed hinge coefficient
    is relu(slope after) + relu(-slope before); flipping the unit flips
    both slopes.  Slopes are read off the bundle's slope matrix at each
    target's nearer neighbouring knot (ties go right), as in
    ``_missing_prescribed``; with none within merge_tol, neither sign does.
    """
    q1s = bundle.q1s[:, None]
    mu = np.concatenate((q1s, q1s + bundle.coeff_matrix.cumsum(axis=1)), axis=1)
    fenced = np.concatenate(([-np.inf], bundle.knots, [np.inf]))
    right = np.searchsorted(fenced, targets)
    nearer = np.where(targets - fenced[right - 1] < fenced[right] - targets, right - 1, right)
    on_knot = np.abs(fenced[nearer] - targets) <= tol.merge_tol
    # fenced[f] is knot f - 1, with slopes mu[f - 1] and mu[f]; a fence is never on a knot
    before, after = mu[:, nearer - 1], mu[:, np.minimum(nearer, mu.shape[1] - 1)]
    plus_ok = on_knot & (np.maximum(after, 0.0) + np.maximum(-before, 0.0) > tol.zero_tol)
    minus_ok = on_knot & (np.maximum(-after, 0.0) + np.maximum(before, 0.0) > tol.zero_tol)
    return plus_ok, minus_ok


def synth_three_hidden(
    h: KnotHierarchy,
    *,
    eps=None,
    a4=None,
    c_out: float = 0.0,
    b_out: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
    rng: np.random.Generator | None = None,
) -> ReluNetwork:
    """Width (1, n1, n2, n3, 1) network activating all three knot levels.

    Layers 1-2 follow the two-hidden build (n2 = 1 < n1 raises alike).
    Third-layer unit r puts its zeros at level3 row r, seen as one zero per
    interval of the first level-2 column; its sign eps_r comes from ``eps``
    (n3 entries of +-1) or greedy selection over the unit values at the
    lower-level knots.  The final row is ``a4`` (n3 entries) or -eps (all
    positive parts add up with one sign); ``c_out`` and ``b_out`` are the
    final layer's source weight and bias.  n3 below log2(n1 + (n1+1) n2)
    only triggers a warning since the post-hoc check decides success.
    Knot k's output coefficient is row . G[:, k], G's member r being
    relu(unit r), so one attempt decides: a miss raises ActivityError that
    sorts the missing knots into those kept by no third-layer unit (G's
    column within zero_tol or absent: no row helps) and those cancelled by
    this row (another ``a4`` can keep them).  ``rng`` has no effect.
    """
    c_out, b_out = _finite_float(c_out, "c_out"), _finite_float(b_out, "b_out")
    if rng is not None:
        warnings.warn("rng has no effect and will be removed", DeprecationWarning, stacklevel=2)
    if h.level3 is None:
        raise ValueError("three-hidden synthesis needs a three-level hierarchy")
    _refuse_single_unit(h)
    n1, n2, n3 = h.n1, h.n2, h.n3
    eps = _per_unit(eps, None, n3, "eps")
    if eps is not None and np.any(np.abs(eps) != 1):
        raise ValueError("eps entries must be +-1")
    a4 = _per_unit(a4, None, n3, "a4")
    lower_count = n1 + (n1 + 1) * n2
    if 2**n3 < lower_count:
        warnings.warn(
            f"width {n3} is below log2({lower_count}); sign selection may not cover "
            "every knot",
            RuntimeWarning,
            stacklevel=2,
        )

    walls = h.level2[:, 0]
    a3 = np.diff(_slope_rows(np.ones(n3), walls, h.level3), axis=1)
    even = np.arange(1, n2 + 1) % 2 == 0
    c3 = 1.0 + a3[:, even].sum(axis=1)
    b3 = -h.level3[:, 0] - a3[:, even] @ walls[even]

    first, second = _two_hidden_layers(h)
    bundle2 = layer_transfer(_unit_bundle(first), second, tol)
    bundle3 = layer_transfer(bundle2, Layer(a3, b3, c3), tol)
    if eps is None:
        targets = np.sort(np.concatenate((h.level1, h.level2.ravel())))
        try:
            eps = epsilon_select(
                eval_bundle(bundle3, targets), _zero_sign_masks(bundle3, targets, tol), tol
            )
        except CoverageError as err:
            warnings.warn(
                f"greedy sign selection left knots uncovered ({err.uncovered}); "
                "continuing with the partial choice",
                RuntimeWarning,
                stacklevel=2,
            )
            eps = err.partial

    # eps flips rows exactly: this is dnn_to_spline's layer-3 bundle bit for bit
    signed3 = SplineBundle._computed(
        bundle3.knots, eps * bundle3.q1s, eps * bundle3.q0s, eps[:, None] * bundle3.coeff_matrix
    )
    last = Layer((-eps if a4 is None else a4).reshape(1, n3), [b_out], [c_out])
    wanted = prescribed_knots(h)
    # dnn_to_spline's last step on the returned network
    missing = _missing_prescribed(layer_transfer(signed3, last, tol).member(0), wanted, tol)
    if missing.size == 0:
        return ReluNetwork((first, second, Layer(a3 * eps[:, None], b3 * eps, c3 * eps), last))
    g = layer_transfer(signed3, Layer(np.eye(n3), np.zeros(n3), np.zeros(n3)), tol)
    kept = CplSpline(0.0, 0.0, g.knots, np.abs(g.coeff_matrix).max(axis=0, initial=0.0))
    unkept = np.isin(missing, _missing_prescribed(kept, missing, tol))
    raise ActivityError(
        "prescribed knots stayed inactive, kept by no third-layer unit: "
        f"{missing[unkept].tolist()}, cancelled by this final row: {missing[~unkept].tolist()}",
        missing,
    )


def hierarchy_from_flat(knots, n1: int, n2: int, n3: int | None = None) -> KnotHierarchy:
    """Arrange a flat sorted knot list into a hierarchy by position.

    Two levels: blocks of n2 level-2 knots separated by single level-1
    knots, n1 + n2 (n1 + 1) in total.  Three levels additionally start
    with n3 level-3 knots before each of the first n2 + 1 separators,
    n3 (n2 + 1) more in total.
    """
    expected = n1 + n2 * (n1 + 1) + (0 if n3 is None else n3 * (n2 + 1))
    ks = _flat_knots(knots, expected, (n1, n2) if n3 is None else (n1, n2, n3))
    level3, body = None, ks
    if n3 is not None:
        # row j: level-3 column j, then level-2 knot j (level-1 knot 0 after the last)
        head = ks[: (n3 + 1) * (n2 + 1)].reshape(n2 + 1, n3 + 1)
        level3 = head[:, :n3].T
        body = np.concatenate((head[:, n3], ks[head.size :]))
    # row v: level-2 column v, then level-1 knot v (none after the last)
    grid = np.append(body, np.nan).reshape(n1 + 1, n2 + 1)
    level1, level2 = grid[:-1, n2], grid[:, :n2].T
    return KnotHierarchy(level1, level2, level3)
