"""Exact translation between ReLU networks and their spline form.

The deep-to-spline direction walks the layers.  Layer 1 is a knotless
bundle: unit k is the line a1[k] t + b1[k].  Every later layer, layer 2
included, is one ``layer_transfer`` step on the whole bundle, so the
layer-2 step turns each unit's zero crossing into its hinge; a
one-hidden-layer network is the one member of that bundle, and
``sigma_compose`` is the step on a one-member bundle.  The step keeps a
hinge where the unit is positive, zeroes it where the unit is negative,
splits it where the unit vanishes exactly, and inserts a new hinge
wherever an affine piece crosses zero inside its interval.  Crossings are
located as -eta/mu from the per-interval form, so all knot arithmetic is
closed form; no sampling or fitting is involved.

Every step merges its knots once, with ``core._merge_columns``, and the
merge in the last step already yields the canonical spline.
``canonicalize`` is the same merge on one row, for raw hinge collections.
The merge groups knots by ``core._merge_groups``, the one rule that the
certificate in ``evaluate`` and normalization's coinciding hinges also
follow.

Input from callers is checked once, by the value types: the network, or
``layer_transfer``'s bundle and ``Layer``, which the step takes as they
are.  The bundles computed here are not checked again.  The layer-1 bundle
wraps the checked first layer's arrays, and each step's bundle is wrapped
without a copy after one finiteness scan, so an overflow still raises
ValueError; the steps run under ``np.errstate(all="ignore")``, so that
ValueError is all the caller sees of it.

Sign decisions use tol.zero_tol.  A unit value at a knot counts as zero
when |f(x)| <= zero_tol * (1 + |mu x|), which keeps the test meaningful
when mu x and eta cancel; slopes count as zero at |mu| <= zero_tol.  The
band and relu's rule for the left tail are core's ``_band_signs`` and
``_grows_outward``, which the certificate in ``evaluate`` also uses.
Relu's hinges, kept at the knots and added at the crossings, are decided
once, in ``_relu_hinges``; synthesis reads the same hinge set for its sign
covers and its miss report.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    CplSpline,
    DimensionMismatchError,
    Layer,
    ReluNetwork,
    SplineBundle,
    Tolerances,
    _band_signs,
    _grows_outward,
    _merge_columns,
    _wrap,
)

__all__ = [
    "sigma_compose",
    "layer_transfer",
    "dnn_to_spline",
    "spline_to_shallow",
]


def _unit_bundle(first: Layer) -> SplineBundle:
    """Layer 1 as a knotless bundle, member k the line a1[k] t + b1[k], not copied."""
    q1s, q0s, n1 = first.A[:, 0], first.b, first.out_width
    return _wrap(SplineBundle, knots=np.empty(0), q1s=q1s, q0s=q0s, coeff_matrix=np.empty((n1, 0)))


# relu(f) itself: the step of sigma_compose
_IDENTITY = Layer([[1.0]], [0.0], [0.0])


def sigma_compose(f: CplSpline, tol: Tolerances = DEFAULT_TOL) -> CplSpline:
    """Canonical spline of relu(f) for a canonical spline f.

    One ``layer_transfer`` step on the one-member bundle of f, whose merge
    already yields the canonical spline.  The result has at most 2 n + 1
    knots: each original knot survives or splits, and each of the n + 1
    affine pieces contributes at most one zero crossing.
    """
    bundle = SplineBundle(f.knots, [f.q1], [f.q0], f.coeffs.reshape(1, -1))
    return layer_transfer(bundle, _IDENTITY, tol).member(0)


def _relu_hinges(bundle: SplineBundle, tol: Tolerances):
    """(mu, eta, kept, members, cross_x, weights): piecewise form and relu's hinges.

    Member j has slope mu[j, v] and intercept eta[j, v] on interval v
    (interval 0 lies left of every knot).  relu(f_j) has hinge coefficient
    kept[j, k] at knot k, and hinge i of weight weights[i] = |mu| at the
    zero crossing cross_x[i] of member members[i].  Each member is classed
    -1/0/+1 at each knot, from the piece left of it, between the signs of
    its tails at -inf and +inf (the outer slopes', negated on the left);
    the zero band scales with |mu x| so that cancellation does not flip
    signs.  Callers silence float warnings.
    """
    knots, coeffs = bundle.knots, bundle.coeff_matrix
    q1, q0 = bundle.q1s, bundle.q0s
    m, n = coeffs.shape
    mu = np.empty((m, n + 1))
    mu[:, 0] = q1
    np.add(q1[:, None], coeffs.cumsum(axis=1), out=mu[:, 1:])
    eta = np.empty((m, n + 1))
    eta[:, 0] = q0
    np.subtract(q0[:, None], (coeffs * knots).cumsum(axis=1), out=eta[:, 1:])

    scaled = mu[:, :-1] * knots
    values = scaled + eta[:, :-1]
    ends = np.empty((m, n + 2))
    ends[:, 0] = -np.sign(q1)
    ends[:, 1:-1] = _band_signs(values, np.abs(scaled), tol.zero_tol)
    ends[:, -1] = np.sign(mu[:, -1])
    classes = ends[:, 1:-1]

    # a positive unit keeps its hinge, a negative one drops it, and one that
    # vanishes at the knot keeps the positive parts of the slopes either side
    split = np.maximum(mu[:, 1:], 0.0) + np.maximum(-mu[:, :-1], 0.0)
    kept = np.where(classes > 0, coeffs, np.where(classes == 0, split, 0.0))

    # a piece crosses zero inside its interval exactly when the classes at
    # its two ends are strictly opposite, which rules out double counting
    # next to a knot that already classified as zero
    members, pieces = np.nonzero((np.abs(mu) > tol.zero_tol) & (ends[:, :-1] * ends[:, 1:] == -1))
    slopes = mu[members, pieces]
    return mu, eta, kept, members, -eta[members, pieces] / slopes, np.abs(slopes)


def layer_transfer(
    bundle: SplineBundle, layer: Layer, tol: Tolerances = DEFAULT_TOL
) -> SplineBundle:
    """Push a bundle through ReLU and one checked layer with source channel.

    Output member k is sum_j A[k, j] relu(f_j) + c[k] t + b[k].  The shared
    knot vector grows by each member's zero crossings; columns that end up
    inactive for every output are removed.
    """
    A, c, b = layer.A, layer.c, layer.b
    if c is None:
        raise DimensionMismatchError("layer_transfer needs a layer with a source channel")
    if layer.in_width != bundle.width:
        raise DimensionMismatchError(
            f"layer expects width {layer.in_width} but bundle has {bundle.width} members"
        )

    # an overflow surfaces as the ValueError of the bundle's finiteness scan
    with np.errstate(all="ignore"):
        kept, members, cross_x, weights = _relu_hinges(bundle, tol)[2:]
        knots, q1, q0 = bundle.knots, bundle.q1s, bundle.q0s
        zero_tol = tol.zero_tol

        # relu(f_j) left of every knot: f_j itself if falling, relu(q0) if flat
        falling = _grows_outward(q1, -1.0, zero_tol)
        tail_q1 = np.where(falling, q1, 0.0)
        tail_q0 = np.where(falling, q0, np.where(np.abs(q1) <= zero_tol, np.maximum(q0, 0.0), 0.0))

        coords = np.concatenate((knots, cross_x))
        columns = np.concatenate((A @ kept, A[:, members] * weights), axis=1)
        merged_x, merged_cols = _merge_columns(coords, knots.shape[0], columns, tol)
        return SplineBundle._computed(merged_x, c + A @ tail_q1, b + A @ tail_q0, merged_cols)


def _hand_over(net: ReluNetwork, spline: CplSpline, tol: Tolerances) -> ReluNetwork:
    """``net`` carrying the spline a synthesis build checked, for ``dnn_to_spline``."""
    net.__dict__["_spline"] = (tol, spline)
    return net


def dnn_to_spline(net: ReluNetwork, tol: Tolerances = DEFAULT_TOL) -> CplSpline:
    """Canonical spline equal to the network everywhere.

    Under the ``tol`` it was built with, a network a synthesis build
    returned gives the spline that build converted; every other call
    converts, and stores nothing.
    """
    handed = net.__dict__.get("_spline")
    if handed is not None and handed[0] == tol:
        return handed[1]
    return _bundle_after(net.layers, tol).member(0)


def _bundle_after(layers, tol: Tolerances) -> SplineBundle:
    """The knotless layer-1 bundle, then one ``layer_transfer`` step per later layer."""
    bundle = _unit_bundle(layers[0])
    for layer in layers[1:]:
        bundle = layer_transfer(bundle, layer, tol)
    return bundle


def spline_to_shallow(spline: CplSpline) -> ReluNetwork:
    """One-hidden-layer network equal to the spline, one unit per knot.

    Uses A1 = 1, b1 = -knots, so converting the result back reproduces the
    spline bit for bit.  A knotless spline yields a width-0 hidden layer.
    """
    return ReluNetwork.shallow(
        np.ones(spline.n_knots), -spline.knots, spline.coeffs, spline.q1, spline.q0
    )
