"""Networks with prescribed breakpoints.

The constructions run the layer calculus in reverse.  Given nested knot
levels, per-interval slopes are fixed by a ratio recursion (consecutive
zeros pin each affine piece), weights are slope differences, and source
channels and biases make every piece vanish where prescribed.  The
three-hidden-layer build additionally selects per-unit signs eps so that
every lower-level knot is kept through the last ReLU by at least one
third-layer unit.

Every build converts the network it builds once and decides activity
from that spline alone, in ``_checked``: it returns the network with every
prescribed knot active, handing the spline to ``dnn_to_spline``, or raises
ActivityError listing the missing knots sorted by reason.  A prescribed
knot is active when a spline knot lies in its own window, within
ACTIVITY_TOL and strictly within half the distance to the nearest other
prescribed knot, so no spline knot realizes two.  A knot no unit
of the last hidden layer keeps is one no final row can activate; any other
missing knot is cancelled by the final row the build used.

Every step works on whole bundles.  The slope recursion runs over
intervals for all units at once.  Every build converts its hidden layers
once, with ``dnn_to_spline``'s own loop (the knotless layer-1 bundle, then
one ``layer_transfer`` step per later hidden layer), and hands ``_checked``
the last hidden bundle.  The three-hidden build picks its signs from
relu's hinges at the lower-level knots, read off its layer-3 bundle and
that bundle negated by the layer step's own rule (``_relu_hinges``);
flipping the rows by eps gives the returned network's bundle bit for bit.
The output row enters linearly, so one step of that bundle through the
final ``Layer`` (``dnn_to_spline``'s last step) gives the network's spline
bit for bit; on a miss one identity step of the same bundle sorts the
missing knots, and nothing is converted twice.

Index convention: unit/knot positions in error messages and subsets (for
example ``redundancy_residual``'s ``index_set``) are 0-based.
"""

from __future__ import annotations

import operator
import warnings

import numpy as np

from .core import (
    ACTIVITY_TOL,
    DEFAULT_TOL,
    ActivityError,
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
# dnn_to_spline is read as synth.dnn_to_spline by bench/selftest.py's tracing check
from .transfer import _bundle_after, _hand_over, _relu_hinges, dnn_to_spline, layer_transfer

__all__ = [
    "synth_two_hidden",
    "synth_two_hidden_no_source",
    "redundancy_residual",
    "synth_three_hidden",
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


def _checked(
    net: ReluNetwork, hidden: SplineBundle, wanted: np.ndarray, tol: Tolerances
) -> ReluNetwork:
    """``net`` handed its spline, or ActivityError sorting the knots it misses.

    ``hidden``, the bundle of ``net``'s last hidden layer, steps through
    the final layer (``dnn_to_spline``'s last step: its spline bit for bit)
    and, on a miss, the identity (relu of each unit): a missing knot with
    no column in its window there is kept by no unit, so no final row
    helps; any other is cancelled by this row.
    """
    last = net.layers[-1]
    spline = layer_transfer(hidden, last, tol).member(0)
    windows = _activity_windows(wanted)
    missed = _missing_prescribed(spline, wanted, windows)
    if not missed.any():
        return _hand_over(net, spline, tol)
    missing = wanted[missed]
    n, unit = last.in_width, ("second", "third")[len(net.layers) - 3]
    kept = layer_transfer(hidden, Layer(np.eye(n), np.zeros(n), np.zeros(n)), tol).knots
    unkept = _nearest_knot(kept, missing)[1] > windows[missed]
    raise ActivityError(
        f"prescribed knots stayed inactive, kept by no {unit}-layer unit: "
        f"{missing[unkept].tolist()}, cancelled by this final row: {missing[~unkept].tolist()}",
        missing,
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
    c_out: float = 0.0,
    b_out: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
) -> ReluNetwork:
    """Width (1, n1, n2, 1) network whose active knots are exactly level1+level2.

    Source signs alternate (+1 on unit 1) and biases put each unit's first
    zero where prescribed.  ``a3`` (n2 entries) is the signed output row,
    used as given; its default alternates the other way (-1 on unit 1) so
    contributions at shared knots never cancel.  ``c_out`` and ``b_out``
    are the final layer's source weight and bias.  Layers 1 and 2 are
    converted once under ``tol`` and stepped through the final row; a miss
    raises ActivityError: a row can cancel a knot, and with n2 = 1 < n1
    (n2 = 0) no unit keeps the even-position (any) level-1 knots.
    """
    c_out, b_out = _finite_float(c_out, "c_out"), _finite_float(b_out, "b_out")
    if h.level3 is not None:
        raise ValueError("two-hidden synthesis takes a two-level hierarchy")
    alternating = np.where(np.arange(1, h.n2 + 1) % 2 == 0, 1.0, -1.0)
    row = _per_unit(a3, alternating, h.n2, "a3")
    net = ReluNetwork((*_two_hidden_layers(h), Layer(row.reshape(1, h.n2), [b_out], [c_out])))
    return _checked(net, _bundle_after(net.layers[:-1], tol), prescribed_knots(h), tol)


def _flat_knots(knots, expected: int, widths: tuple) -> np.ndarray:
    """A flat knot list as floats: finite, ``expected`` long, strictly increasing.

    ``widths`` are the hidden widths the list is arranged for; none may be
    negative.
    """
    widths = tuple(map(operator.index, widths))
    shape = ", ".join(map(str, widths))
    if min(widths) < 0:
        raise ValueError(f"widths must be non-negative, got ({shape})")
    ks = _frozen_array(np.atleast_1d(np.asarray(knots, dtype=float)), ndim=1, name="knots")
    if ks.shape[0] != expected:
        raise DimensionMismatchError(
            f"expected {expected} knots for widths ({shape}), got {ks.shape[0]}"
        )
    if np.any(np.diff(ks) <= 0):
        raise InterlacingError("knots must be strictly increasing and distinct")
    return ks


def synth_two_hidden_no_source(
    knots, n1: int, n2: int, *, seeds=None, a3=None, b_out: float = 0.0,
    tol: Tolerances = DEFAULT_TOL,
) -> ReluNetwork:
    """Prescribed-knot network with every source channel equal to zero.

    Takes a flat strictly increasing list of n1 (n2 + 1) knots, n1 >= 1,
    read in blocks [x_k, zeros of unit 1..n2 in (x_k, x_{k+1})].  Without a
    source channel each unit is constant left of x_1, so there are no knots
    there; ``seeds`` (n2 entries) sets the first-interval slopes (default
    alternating -1, +1, ...).  ``a3`` (n2 entries) is the signed output
    row (default ones) and ``b_out`` the final bias; the final source
    weight is zero like every other.  Both are used as given.  Layers 1
    and 2 are converted once under ``tol`` and stepped through the final
    row; a missing prescribed knot raises ActivityError.  With n1 > 1,
    seeds of one sign (the default for n2 = 1 among them) leave level-1
    knots kept by no unit; with n2 = 0 every level-1 knot is missing.
    """
    b_out = _finite_float(b_out, "b_out")
    if n1 < 1:
        raise InterlacingError(f"level 1 needs at least one knot, got n1 = {n1}")
    ks = _flat_knots(knots, n1 * (n2 + 1), (n1, n2))
    blocks = ks.reshape(n1, n2 + 1)
    x1, zeros = blocks[:, 0], blocks[:, 1:].T
    seeds = _per_unit(seeds, np.where(np.arange(1, n2 + 1) % 2 == 1, -1.0, 1.0), n2, "seeds")
    # the slope recursion from interval 1 on, where the zeros interlace x1[1:]
    mu = np.zeros((n2, n1 + 1))
    mu[:, 1:] = _slope_rows(seeds, x1[1:], zeros)
    a2 = np.diff(mu, axis=1)
    b2 = seeds * (x1[0] - zeros[:, 0])
    row = _per_unit(a3, np.ones(n2), n2, "a3")
    net = ReluNetwork(
        (
            Layer(np.ones((n1, 1)), -x1),
            Layer(a2, b2, np.zeros(n2)),
            Layer(row.reshape(1, n2), [b_out], np.zeros(1)),
        )
    )
    return _checked(net, _bundle_after(net.layers[:-1], tol), ks, tol)


def redundancy_residual(h: KnotHierarchy, index_set, j: int) -> float:
    """How far unit j is from the no-source breakpoint relation.

    ``index_set`` selects level-1 knot positions (0-based, a nonempty
    proper subset).  The residual is sum over the set of ratio products up
    to each selected knot (exclusive) minus 1 minus the same sum inclusive;
    it vanishes exactly when the unit's zeros could also be realized with a
    zero source weight.
    """
    j = operator.index(j)
    if not 0 <= j < h.n2:
        raise ValueError(f"j must be in range(n2) = range({h.n2}), got {j}")
    x = h.level1
    row = h.level2[j]
    chosen = sorted(set(map(operator.index, index_set)))
    if not chosen or len(chosen) >= h.n1 or chosen[0] < 0 or chosen[-1] >= h.n1:
        raise ValueError("index_set must be a nonempty proper subset of range(n1)")
    ratios = (x - row[:-1]) / (x - row[1:])
    products = np.concatenate(([1.0], np.cumprod(ratios)))
    exclusive = sum(products[k] for k in chosen)
    inclusive = sum(products[k + 1] for k in chosen)
    return float(exclusive - 1.0 - inclusive)


def _greedy_signs(covers_plus: np.ndarray, covers_minus: np.ndarray):
    """The greedy sign pass: its signs and the columns they leave uncovered.

    Row r with sign +1 (-1) covers column i where covers_plus (covers_minus)[r, i].
    Row by row, the sign covering more still-uncovered columns wins; ties
    go to +1.
    """
    eps = np.ones(covers_plus.shape[0])
    uncovered = np.ones(covers_plus.shape[1], dtype=bool)
    for r in range(covers_plus.shape[0]):
        gain_plus = np.count_nonzero(uncovered & covers_plus[r])
        if np.count_nonzero(uncovered & covers_minus[r]) > gain_plus:
            eps[r] = -1.0
        uncovered &= ~(covers_plus[r] if eps[r] > 0 else covers_minus[r])
    return eps, np.flatnonzero(uncovered)


def prescribed_knots(h: KnotHierarchy) -> np.ndarray:
    """All knots of the hierarchy, sorted ascending."""
    parts = [h.level1, h.level2.ravel()]
    if h.level3 is not None:
        parts.append(h.level3.ravel())
    return np.sort(np.concatenate(parts))


def _nearest_knot(knots: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each target's nearer sorted knot (ties go right), and its distance.

    The nearest knot is one of the two sorted neighbours, and rounding
    |p - x| is monotone in x, so checking both gives the minimum over all
    knots bit for bit.  With no knots every index is -1 and every distance
    inf.
    """
    fenced = np.concatenate(([-np.inf], knots, [np.inf]))
    right = np.searchsorted(fenced, targets)
    # fenced[right - 1] < p <= fenced[right], so both gaps are non-negative
    left_gap, right_gap = targets - fenced[right - 1], fenced[right] - targets
    nearer = np.where(left_gap < right_gap, right - 1, right)
    # fenced[f] is knot f - 1, and no fence is nearer than a knot
    return np.minimum(nearer, knots.size) - 1, np.minimum(left_gap, right_gap)


def _activity_windows(prescribed: np.ndarray) -> np.ndarray:
    """How near a knot must lie to realize each sorted prescribed knot.

    ACTIVITY_TOL, capped strictly below half the distance d to the nearest
    other prescribed knot (the largest float below d/2), so no knot lies in
    two windows and each prescribed knot needs its own.
    """
    gaps = np.concatenate(([np.inf], np.diff(prescribed), [np.inf]))
    halves = 0.5 * np.minimum(gaps[:-1], gaps[1:])
    return np.minimum(np.nextafter(halves, -np.inf), ACTIVITY_TOL)


def _missing_prescribed(
    spline: CplSpline, prescribed: np.ndarray, windows: np.ndarray
) -> np.ndarray:
    """Which prescribed knots have no knot of the canonical spline in their window."""
    return _nearest_knot(spline.knots, prescribed)[1] > windows


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

    Layers 1-2 follow the two-hidden build.  Third-layer unit r puts its
    zeros at level3 row r, seen as one zero per interval of the first
    level-2 column; its sign eps_r comes from ``eps`` (n3 entries of +-1)
    or the greedy pass over the lower-level knots, where a sign covers a
    knot when relu of the signed unit keeps a hinge in the knot's activity
    window by the layer step's own rule; the activity check reports what
    stays uncovered.  The final row is ``a4`` (n3 entries) or -eps (all
    positive parts add up with one sign); ``c_out`` and ``b_out`` are the
    final layer's source weight and bias.  Knot k's output coefficient is
    row . G[:, k], G's member r being relu(unit r), so one attempt
    decides: the build returns a network with every prescribed knot
    active, or raises ActivityError that sorts the missing knots into
    those kept by no third-layer unit (no column of G: no row helps) and
    those cancelled by this row (another ``a4`` can keep them).  ``rng``
    has no effect.
    """
    c_out, b_out = _finite_float(c_out, "c_out"), _finite_float(b_out, "b_out")
    if rng is not None:
        warnings.warn("rng has no effect and will be removed", DeprecationWarning, stacklevel=2)
    if h.level3 is None:
        raise ValueError("three-hidden synthesis needs a three-level hierarchy")
    n2, n3 = h.n2, h.n3
    eps = _per_unit(eps, None, n3, "eps")
    if eps is not None and np.any(np.abs(eps) != 1):
        raise ValueError("eps entries must be +-1")
    a4 = _per_unit(a4, None, n3, "a4")

    walls = h.level2[:, 0]
    a3 = np.diff(_slope_rows(np.ones(n3), walls, h.level3), axis=1)
    even = np.arange(1, n2 + 1) % 2 == 0
    c3 = 1.0 + a3[:, even].sum(axis=1)
    b3 = -h.level3[:, 0] - a3[:, even] @ walls[even]

    first, second = _two_hidden_layers(h)
    bundle3 = _bundle_after((first, second, Layer(a3, b3, c3)), tol)
    wanted = prescribed_knots(h)
    if eps is None:
        # rows n3 + r are unit r negated exactly: what the layer step sees for eps_r = -1
        rows = (np.concatenate((v, -v)) for v in (bundle3.q1s, bundle3.q0s, bundle3.coeff_matrix))
        with np.errstate(all="ignore"):
            kept = _relu_hinges(SplineBundle._computed(bundle3.knots, *rows), tol)[3]
        # a sign covers a lower-level knot when relu keeps the knot found in its window
        targets = np.sort(np.concatenate((h.level1, h.level2.ravel())))
        nearer, distance = _nearest_knot(bundle3.knots, targets)
        hit = distance <= _activity_windows(wanted)[np.searchsorted(wanted, targets)]
        covers = np.zeros((2 * n3, hit.size), dtype=bool)
        covers[:, hit] = np.abs(kept[:, nearer[hit]]) > tol.zero_tol
        eps = _greedy_signs(covers[:n3], covers[n3:])[0]

    # eps flips rows exactly: this is dnn_to_spline's layer-3 bundle bit for bit
    signed3 = SplineBundle._computed(
        bundle3.knots, eps * bundle3.q1s, eps * bundle3.q0s, eps[:, None] * bundle3.coeff_matrix
    )
    last = Layer((-eps if a4 is None else a4).reshape(1, n3), [b_out], [c_out])
    net = ReluNetwork((first, second, Layer(a3 * eps[:, None], b3 * eps, c3 * eps), last))
    return _checked(net, signed3, wanted, tol)


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
