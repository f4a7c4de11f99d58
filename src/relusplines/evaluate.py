"""Forward evaluation and function-level comparison.

``eval_network`` and ``eval_spline`` accept a scalar or a 1-D array of
points and return the matching shape; core's ``_frozen_array`` checks the
points, so any other shape raises DimensionMismatchError and a non-finite
point ValueError.  ``eval_spline`` uses the piecewise form anchored
at each interval's left knot (the value there plus slope times offset),
found with ``searchsorted``: O((P + K) log K) time and O(P + K) memory for
P points and K knots.  The rounding error follows the spline's values and
slopes between the first knot and the point, not the hinge terms of a sum
of hinges, which can be far larger and cancel.  Because both
representations are continuous piecewise-linear, two of them agree
everywhere as soon as they agree on every knot, one interior point per
interval and one point beyond each outermost knot; ``probe_grid``
produces exactly such a grid.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import CplSpline, ReluNetwork, _frozen_array

__all__ = ["eval_network", "eval_spline", "probe_grid", "equivalence_error"]


def _as_points(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return _frozen_array(np.atleast_1d(arr), ndim=1, name="evaluation points"), arr.ndim == 0


def eval_network(net: ReluNetwork, t):
    """Value of the network at t (scalar or 1-D array)."""
    points, scalar = _as_points(t)
    first = net.layers[0]
    state = first.A @ points[None, :] + first.b[:, None]
    for layer in net.layers[1:]:
        state = layer.A @ np.maximum(state, 0.0) + layer.c[:, None] * points[None, :] + layer.b[:, None]
    values = state[0]
    return float(values[0]) if scalar else values


def eval_spline(spline: CplSpline, t):
    """Value of the spline at t (scalar or 1-D array).

    Raw splines (unsorted or repeated knots, zero coefficients) are
    accepted.  Left of the first knot the value is q1 t + q0; the values
    at the knots are accumulated rightwards from x_0.
    """
    points, scalar = _as_points(t)
    order = np.argsort(spline.knots, kind="stable")
    knots = spline.knots[order]
    # piece 0 is the left tail, anchored at 0; piece i + 1 starts at the i-th knot
    anchors = np.concatenate(([0.0], knots))
    slopes = spline.q1 + np.concatenate(([0.0], spline.coeffs[order])).cumsum()
    at_anchor = np.concatenate(([spline.q0], slopes[:-1] * np.diff(anchors))).cumsum()
    piece = np.searchsorted(knots, points, side="right")
    values = at_anchor[piece] + slopes[piece] * (points - anchors[piece])
    return float(values[0]) if scalar else values


def probe_grid(knots, margin: float = 1.0, per_interval: int = 1) -> np.ndarray:
    """Knots plus equispaced interior points plus one flank on each side.

    Knotless input yields {-margin, 0, margin}.  Two splines sharing the
    knot set agree everywhere iff they agree on this grid (per_interval
    >= 1), so grid comparison decides equality of piecewise-linear
    functions exactly.  The knots are checked by ``_frozen_array`` (not
    1-D: DimensionMismatchError; non-finite: ValueError); a margin that is
    not positive and finite, a ``per_interval`` below 1 or knots that are
    not strictly increasing raise ValueError.
    """
    if not 0 < margin < np.inf:
        raise ValueError("margin must be positive and finite")
    per_interval = operator.index(per_interval)
    if per_interval < 1:
        raise ValueError("per_interval must be at least 1")
    knots = _frozen_array(knots, ndim=1, name="knots")
    if knots.size == 0:
        return np.array([-margin, 0.0, margin])
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    fractions = np.arange(1, per_interval + 1) / (per_interval + 1)
    left = knots[:-1]
    interior = (left[:, None] + np.diff(knots)[:, None] * fractions[None, :]).ravel()
    flanks = [knots[0] - margin, knots[-1] + margin]
    return np.unique(np.concatenate((knots, interior, flanks)))


def equivalence_error(net: ReluNetwork, spline: CplSpline, grid) -> float:
    """max over the grid of |network - spline| / (1 + |network|), 0 on an empty grid."""
    f = eval_network(net, grid)
    s = eval_spline(spline, grid)
    return float(np.max(np.abs(f - s) / (1.0 + np.abs(f)), initial=0.0))
