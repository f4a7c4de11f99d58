"""Forward evaluation and function-level comparison.

``eval_network`` and ``eval_spline`` accept a scalar or a 1-D array of
points and return the matching shape; ``eval_bundle`` returns one row per
member of a ``SplineBundle``, and ``eval_spline`` is its one-row case.
Both use the piecewise form anchored at each interval's left knot (the
value there plus slope times offset), found with ``searchsorted``:
O((P + K) log K) time and O(W (P + K)) memory for W members, P points and
K knots.  The rounding error follows the spline's values and slopes
between the first knot and the point, not the hinge terms of a sum of
hinges, which can be far larger and cancel.  Because both representations are
continuous piecewise-linear, two of them agree everywhere as soon as they
agree on every knot, one interior point per interval and one point beyond
each outermost knot; ``probe_grid`` produces exactly such a grid.
"""

from __future__ import annotations

import numpy as np

from .core import CplSpline, ReluNetwork, SplineBundle

__all__ = ["eval_network", "eval_spline", "eval_bundle", "probe_grid", "equivalence_error"]


def _as_points(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def eval_network(net: ReluNetwork, t):
    """Value of the network at t (scalar or 1-D array)."""
    points, scalar = _as_points(t)
    first = net.layers[0]
    state = first.A @ points[None, :] + first.b[:, None]
    for layer in net.layers[1:]:
        state = layer.A @ np.maximum(state, 0.0) + layer.c[:, None] * points[None, :] + layer.b[:, None]
    values = state[0]
    return float(values[0]) if scalar else values


def _eval_rows(knots, q1s, q0s, coeffs, points) -> np.ndarray:
    """Row r: q1s[r] t + q0s[r] + sum_k coeffs[r, k] relu(t - knots[k]), knots sorted."""
    # piece 0 is the left tail, anchored at 0; piece i + 1 starts at the i-th knot
    anchors = np.concatenate(([0.0], knots))
    slopes = q1s[:, None] + np.column_stack((np.zeros(q1s.shape[0]), coeffs)).cumsum(axis=1)
    at_anchor = np.column_stack((q0s, slopes[:, :-1] * np.diff(anchors))).cumsum(axis=1)
    piece = np.searchsorted(knots, points, side="right")
    return at_anchor[:, piece] + slopes[:, piece] * (points - anchors[piece])


def eval_spline(spline: CplSpline, t):
    """Value of the spline at t (scalar or 1-D array).

    Raw splines (unsorted or repeated knots, zero coefficients) are
    accepted.  Left of the first knot the value is q1 t + q0; the values
    at the knots are accumulated rightwards from x_0.
    """
    points, scalar = _as_points(t)
    order = np.argsort(spline.knots, kind="stable")
    q1s, q0s = np.array([spline.q1]), np.array([spline.q0])
    values = _eval_rows(spline.knots[order], q1s, q0s, spline.coeffs[order][None, :], points)[0]
    return float(values[0]) if scalar else values


def eval_bundle(bundle: SplineBundle, t) -> np.ndarray:
    """Every member at t: shape (width,) for a scalar, (width, points) for
    an array; row r is ``eval_spline(bundle.member(r), t)`` bit for bit."""
    points, scalar = _as_points(t)
    values = _eval_rows(bundle.knots, bundle.q1s, bundle.q0s, bundle.coeff_matrix, points)
    return values[:, 0] if scalar else values


def probe_grid(knots, margin: float = 1.0, per_interval: int = 1) -> np.ndarray:
    """Knots plus equispaced interior points plus one flank on each side.

    Knotless input yields {-margin, 0, margin}.  Two splines sharing the
    knot set agree everywhere iff they agree on this grid (per_interval
    >= 1), so grid comparison decides equality of piecewise-linear
    functions exactly.  Non-finite knots or margin raise ValueError.
    """
    if not 0 < margin < np.inf:
        raise ValueError("margin must be positive and finite")
    per_interval = int(per_interval)
    if per_interval < 1:
        raise ValueError("per_interval must be at least 1")
    knots = np.asarray(knots, dtype=float)
    if not np.isfinite(knots).all():
        raise ValueError("knots contain non-finite entries")
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
    """max over the grid of |network - spline| / (1 + |network|)."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        return 0.0
    f = eval_network(net, grid)
    s = eval_spline(spline, grid)
    return float(np.max(np.abs(f - s) / (1.0 + np.abs(f))))
