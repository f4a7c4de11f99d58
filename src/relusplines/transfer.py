"""Exact translation between ReLU networks and their spline form.

The deep-to-spline direction walks the layers.  The first layer turns each
unit into one hinge (``_unit_hinges``), so every layer-2 unit is a spline
over a shared knot vector; a one-hidden-layer network is the one member of
that bundle.  Each later layer is one ``layer_transfer`` step on the whole
bundle, and ``sigma_compose`` is that step on a one-member bundle.  The
step keeps a hinge where the unit is positive, zeroes it where the unit is
negative, splits it where the unit vanishes exactly, and inserts a new
hinge wherever an affine piece crosses zero inside its interval.
Crossings are located as -eta/mu from the per-interval form, so all knot
arithmetic is closed form; no sampling or fitting is involved.

Every step merges its knots once, with ``core._merge_columns``, and the
merge in the last step already yields the canonical spline.
``canonicalize`` is the same merge on one row, for raw hinge collections.

Input from callers is checked once, by the value types: the network, or
``layer_transfer``'s bundle, and each step's A, c and b, which the step
builds into a ``Layer`` whoever calls it.  The bundles computed here are
not checked again.  Each step's bundle, ``_first_bundle``'s included, is
wrapped without a copy after one finiteness scan, so an overflow still
raises ValueError; the steps run under ``np.errstate(all="ignore")``, so
that ValueError is all the caller sees of it.

Sign decisions use tol.zero_tol.  A unit value at a knot counts as zero
when |f(x)| <= zero_tol * (1 + |mu x|), which keeps the test meaningful
when mu x and eta cancel; slopes count as zero at |mu| <= zero_tol.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    CplSpline,
    DegenerateFirstLayerError,
    DimensionMismatchError,
    Layer,
    ReluNetwork,
    SplineBundle,
    Tolerances,
    _merge_columns,
)

__all__ = [
    "sigma_compose",
    "first_layer_canonicalize",
    "layer_transfer",
    "dnn_to_spline",
    "spline_to_shallow",
]


def _unit_hinges(a1, b1, A2, c2, b2, zero_tol: float):
    """Layer-2 units sum_k A2[:, k] relu(a1[k] t + b1[k]) + c2 t + b2 as hinges.

    A unit with a1[k] > 0 hinges at -b1[k]/a1[k] with column A2[:, k] a1[k].
    One with a1[k] < 0 hinges at the same spot with column -A2[:, k] a1[k]
    and folds its left-side affine part into (q1s, q0s).  Dead units
    (|a1[k]| <= zero_tol) only add A2[:, k] relu(b1[k]) to q0s.  Returns the
    live units' knots, unsorted, with their columns, q1s and q0s.
    """
    live = np.abs(a1) > zero_tol
    knots = -b1[live] / a1[live]
    columns = A2[:, live] * np.abs(a1[live])[None, :]
    q1s = c2 - A2 @ np.where(live, np.maximum(-a1, 0.0), 0.0)
    q0s = b2 + A2 @ np.where(live, np.where(a1 < 0, b1, 0.0), np.maximum(b1, 0.0))
    return knots, columns, q1s, q0s


def sigma_compose(f: CplSpline, tol: Tolerances = DEFAULT_TOL) -> CplSpline:
    """Canonical spline of relu(f) for a canonical spline f.

    One ``layer_transfer`` step on the one-member bundle of f, whose merge
    already yields the canonical spline.  The result has at most 2 n + 1
    knots: each original knot survives or splits, and each of the n + 1
    affine pieces contributes at most one zero crossing.
    """
    bundle = SplineBundle(f.knots, [f.q1], [f.q0], f.coeffs.reshape(1, -1))
    return layer_transfer(bundle, [[1.0]], [0.0], [0.0], tol).member(0)


def first_layer_canonicalize(
    net: ReluNetwork, tol: Tolerances = DEFAULT_TOL
) -> tuple[SplineBundle, ReluNetwork]:
    """Rewrite layer 1 as A1 = 1, b1 = -knots without changing the function.

    Each unit relu(a t + b) equals |a| relu(t - x) at x = -b/a, up to an
    affine part that folds into the next layer's source channel and bias.
    Returns the layer-2 bundle (knots, q1s = c, q0s = b, coefficients) and
    the rewritten network.  Already-canonical networks come back bit for
    bit.  Dead units or coinciding hinges raise DegenerateFirstLayerError.
    """
    first = net.layers[0]
    second = net.layers[1]
    a1 = first.A[:, 0]
    n1 = a1.shape[0]
    # an overflow surfaces as a ValueError below, from the checks
    with np.errstate(all="ignore"):
        hinges, columns, c2, b2 = _unit_hinges(
            a1, first.b, second.A, second.c, second.b, tol.zero_tol
        )
        order = np.argsort(hinges, kind="stable")
        knots = hinges[order]
        distinct = np.diff(knots) > tol.merge_tol
    if knots.shape[0] < n1 or not np.all(distinct):
        problem = "dead units" if knots.shape[0] < n1 else "coinciding hinges"
        # units left after dropping dead ones and collapsing shared hinges
        width = 1 + int(np.sum(distinct)) if knots.size else 0
        raise DegenerateFirstLayerError(
            f"first layer has {problem}; effective width {width} of {n1}", width
        )
    scaled = columns[:, order]
    rewritten = ReluNetwork(
        (
            Layer(np.ones((n1, 1)), -knots),
            Layer(scaled, b2, c2),
            *net.layers[2:],
        )
    )
    bundle = SplineBundle(knots, c2, b2, scaled)
    return bundle, rewritten


def layer_transfer(
    bundle: SplineBundle, A, c, b, tol: Tolerances = DEFAULT_TOL
) -> SplineBundle:
    """Push a bundle through ReLU and one affine layer with source channel.

    Output member k is sum_j A[k, j] relu(f_j) + c[k] t + b[k].  The shared
    knot vector grows by each member's zero crossings; columns that end up
    inactive for every output are removed.
    """
    layer = Layer(np.atleast_2d(A), np.atleast_1d(b), np.atleast_1d(c))
    A, c, b = layer.A, layer.c, layer.b
    if layer.in_width != bundle.width:
        raise DimensionMismatchError(
            f"layer expects width {layer.in_width} but bundle has {bundle.width} members"
        )

    # an overflow surfaces as the ValueError of the bundle's finiteness scan
    with np.errstate(all="ignore"):
        knots = bundle.knots
        coeffs = bundle.coeff_matrix
        q1, q0 = bundle.q1s, bundle.q0s
        zero_tol = tol.zero_tol
        m, n = coeffs.shape
        # piecewise form of every member: slope mu[j, v], intercept eta[j, v]
        mu = np.empty((m, n + 1))
        mu[:, 0] = q1
        np.add(q1[:, None], coeffs.cumsum(axis=1), out=mu[:, 1:])
        eta = np.empty((m, n + 1))
        eta[:, 0] = q0
        np.subtract(q0[:, None], (coeffs * knots).cumsum(axis=1), out=eta[:, 1:])

        # -1/0/+1 class of each member at each knot, from the piece left of it,
        # between the signs of the tails at -inf and +inf (those of the outer
        # slopes, negated on the left); the zero band scales with |mu x| so that
        # cancellation does not flip signs
        scaled = mu[:, :-1] * knots
        values = scaled + eta[:, :-1]
        ends = np.empty((m, n + 2))
        ends[:, 0] = -np.sign(q1)
        zero = np.abs(values) <= zero_tol * (1.0 + np.abs(scaled))
        ends[:, 1:-1] = np.where(zero, 0.0, np.sign(values))
        ends[:, -1] = np.sign(mu[:, -1])
        classes = ends[:, 1:-1]

        # hinge coefficients of relu(f_j) at the shared knots
        split = np.maximum(mu[:, 1:], 0.0) + np.maximum(-mu[:, :-1], 0.0)
        kept = np.where(classes > 0, coeffs, np.where(classes == 0, split, 0.0))

        # a piece crosses zero inside its interval exactly when the classes at
        # its two ends are strictly opposite, which rules out double counting
        # next to a knot that already classified as zero
        members, pieces = np.nonzero((np.abs(mu) > zero_tol) & (ends[:, :-1] * ends[:, 1:] == -1))
        slopes = mu[members, pieces]
        cross_x = -eta[members, pieces] / slopes

        # relu(f_j) left of every knot: f_j itself if falling, relu(q0) if flat
        falling = q1 < -zero_tol
        tail_q1 = np.where(falling, q1, 0.0)
        tail_q0 = np.where(falling, q0, np.where(np.abs(q1) <= zero_tol, np.maximum(q0, 0.0), 0.0))

        coords = np.concatenate((knots, cross_x))
        is_new = np.arange(coords.shape[0]) >= n
        columns = np.concatenate((A @ kept, A[:, members] * np.abs(slopes)), axis=1)
        merged_x, merged_cols = _merge_columns(coords, is_new, columns, tol)
        return SplineBundle._computed(merged_x, c + A @ tail_q1, b + A @ tail_q0, merged_cols)


def _first_bundle(first: Layer, second: Layer, tol: Tolerances) -> SplineBundle:
    """The layer-2 units as a bundle over the first layer's merged hinges."""
    # an overflow surfaces as the ValueError of the bundle's finiteness scan
    with np.errstate(all="ignore"):
        hinges, columns, q1s, q0s = _unit_hinges(
            first.A[:, 0], first.b, second.A, second.c, second.b, tol.zero_tol
        )
        knots, columns = _merge_columns(hinges, np.ones(hinges.shape[0], bool), columns, tol)
        return SplineBundle._computed(knots, q1s, q0s, columns)


def dnn_to_spline(net: ReluNetwork, tol: Tolerances = DEFAULT_TOL) -> CplSpline:
    """Canonical spline equal to the network everywhere."""
    bundle = _first_bundle(net.layers[0], net.layers[1], tol)
    for layer in net.layers[2:]:
        bundle = layer_transfer(bundle, layer.A, layer.c, layer.b, tol)
    return bundle.member(0)


def spline_to_shallow(spline: CplSpline) -> ReluNetwork:
    """One-hidden-layer network equal to the spline, one unit per knot.

    Uses A1 = 1, b1 = -knots, so converting the result back reproduces the
    spline bit for bit.  A knotless spline yields a width-0 hidden layer.
    """
    return ReluNetwork.shallow(
        np.ones(spline.n_knots), -spline.knots, spline.coeffs, spline.q1, spline.q0
    )
