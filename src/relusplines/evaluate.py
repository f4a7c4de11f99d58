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
produces such a grid from known knots.  A network's knots need
not be known: ``certified_grid`` adds the zero crossings of its hidden
units to a grid until the network is affine on every interval and on
each tail, so a spline's certified probe grid decides its equality with
a network without converting the network.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .core import (
    DEFAULT_TOL,
    CplSpline,
    ReluNetwork,
    Tolerances,
    _band_signs,
    _check_finite,
    _frozen_array,
    _grows_outward,
    _merge_groups,
)

__all__ = ["eval_network", "eval_spline", "probe_grid", "certified_grid", "equivalence_error"]


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


def probe_grid(knots) -> np.ndarray:
    """The knots, the points 1/4, 1/2 and 3/4 through each interval and one
    point 2 beyond each end; {-2, 0, 2} without knots.

    Two splines whose knots are among these agree everywhere iff they agree
    on this grid; a network's equality with a spline takes the grid
    ``certified_grid`` builds from it.  The knots are checked by
    ``_frozen_array`` (not 1-D: DimensionMismatchError; non-finite:
    ValueError); knots that are not strictly increasing raise ValueError.
    """
    knots = _frozen_array(knots, ndim=1, name="knots")
    if knots.size == 0:
        return np.array([-2.0, 0.0, 2.0])
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    interior = (knots[:-1, None] + np.diff(knots)[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
    return np.unique(np.concatenate((knots, interior, [knots[0] - 2.0, knots[-1] + 2.0])))


def certified_grid(net: ReluNetwork, points, tol: Tolerances = DEFAULT_TOL):
    """(grid, rounds): the points plus hidden units' zero crossings, until the
    network is affine on every grid interval and on each tail beyond the grid.

    Each round is one forward pass on the grid.  A hidden unit's sign counts
    as zero within the band zero_tol * (1 + scale) of ``core._band_signs``,
    scale summing the magnitudes of the pass's terms that make up its value
    (the layer step takes its scale from the spline form, so the two bands
    differ).  In each interval the lowest layer with a unit of strictly
    opposite signs at the two ends gives the round's points: every lower
    unit keeps its sign there, so each such unit is affine on the interval
    and linear interpolation finds its crossing.  The interpolation runs
    from the nearer end and, where the unit is still outside the band at the
    point found, repeats on the part of the bracket where the sign changes
    (regula falsi with the Illinois rule, at most ``_POLISH_STEPS`` times
    more), so that rounding over a wide interval does not leave a crossing
    for the next round.  The tails do the same with each unit's one-sided
    slope far out, carried through the pass under relu's tail rule,
    ``core._grows_outward``: a unit steeper than zero_tol there whose sign
    at the outer grid point is not its sign far out adds its crossing and a
    new outer point beyond it, so that a bend at the old outer point comes
    to lie between two grid points.  Points merge as the layer step merges
    knots, by ``core._merge_groups`` with the grid points as the originals:
    a chain of points each within merge_tol of the one before is one point,
    the grid point in it if it has one.  A crossing that merges into a grid
    point is that point, and leaves its interval to the layers above.

    The rounds stop when one adds nothing.  Each round lets one more layer
    keep its signs, so in exact arithmetic rounds <= hidden layers, and a
    round past that raises ValueError.  In floating point it can happen
    where the forward pass's rounding near a crossing exceeds the band.  Of
    3000 networks of 2 to 6 hidden layers with weights normal x
    10^U(-3, 3), 1 needs that round when started from {-1, 0, 1}, and 2
    when started from ``probe_grid([])``, which is {-2, 0, 2}.

    Two continuous piecewise-linear functions that are affine on the same
    grid intervals and tails agree everywhere once they agree on the grid,
    so the grid of a spline's knots certified here decides the network's
    equality with it without converting the network.  What the band hides:
    a unit whose value at a grid point lies within the band has sign 0
    there, so a crossing that close to the point is read as the point,
    much as the layer step splits a hinge at a knot inside its own band.
    The pass holds a width x points state per layer, as ``eval_network``.
    The points are checked as ``eval_network``'s; fewer than two distinct
    points raise ValueError.  So does an overflow, as in the layer step: the
    passes run under ``np.errstate(all="ignore")``, and a hidden value, an
    output on the grid or a crossing that is not finite raises.
    """
    grid, rounds, settled = _certify(net, points, tol)
    if not settled:
        raise ValueError(f"crossings still found after {rounds} rounds, one per hidden layer")
    return grid, rounds


def _certify(net: ReluNetwork, points, tol: Tolerances):
    """(grid, rounds, settled): ``certified_grid``, or its grid after one
    round per hidden layer with settled False where crossings remain."""
    grid = np.unique(_as_points(points)[0])
    if grid.size < 2:
        raise ValueError("certified_grid needs at least two distinct points")
    hidden = len(net.layers) - 1
    # an overflow surfaces as the ValueError of a finiteness check in the pass
    with np.errstate(all="ignore"):
        for rounds in range(hidden + 1):
            found = _crossings(net, grid, tol)
            if found.size == 0 or rounds == hidden:
                return grid, rounds, found.size == 0
            grid = np.union1d(grid, found)


# interpolations per crossing after the first: one mends the rounding of a
# wide bracket, the Illinois rule needs a few where a lower hinge bends it
_POLISH_STEPS = 8


def _hidden_layers(net: ReluNetwork, points: np.ndarray, zero_tol: float):
    """(next layer, z, signs) per hidden layer: its pre-activations on the
    points and their classes under the zero band.  Each unit passes relu of
    its value on; the band decides signs only.  A hidden value that is not
    finite raises ValueError, and so does the network's output once the
    pass runs past the last hidden layer."""
    first = net.layers[0]
    z = first.A @ points[None, :] + first.b[:, None]
    scale = np.abs(first.A) @ np.abs(points)[None, :] + np.abs(first.b)[:, None]
    for layer in net.layers[1:]:
        _check_finite(z, "hidden layer")
        signs = _band_signs(z, scale, zero_tol)
        yield layer, z, signs
        h = np.maximum(z, 0.0)
        z = layer.A @ h + layer.c[:, None] * points + layer.b[:, None]
        scale = np.abs(layer.A) @ h + np.abs(layer.c)[:, None] * np.abs(points) + np.abs(layer.b)[:, None]
    _check_finite(z, "network output")


def _crossings(net: ReluNetwork, grid: np.ndarray, tol: Tolerances) -> np.ndarray:
    """One round of ``certified_grid``: the new points, sorted."""
    zero_tol = tol.zero_tol
    settled = np.zeros(grid.size - 1, dtype=bool)  # intervals a lower layer split
    tails_settled = [False, False]
    # one-sided slopes far left (row 0) and far right (row 1) of each unit
    tails = np.repeat(net.layers[0].A.T, 2, axis=0)
    outwards = np.array([[-1.0], [1.0]])
    found = [np.empty(0)]
    for k, (layer, z, signs) in enumerate(_hidden_layers(net, grid, zero_tol)):
        units, cells = np.nonzero((signs[:, :-1] * signs[:, 1:] == -1) & ~settled)
        crossings = _polished(net, k, units, grid[cells], z[units, cells],
                              grid[cells + 1], z[units, cells + 1], tol)

        beyond = [np.empty(0), np.empty(0)]
        for side, (end, inner) in enumerate(((0, 1), (-1, -2))):
            slopes, outward = tails[side], outwards[side, 0]
            # far out, a unit steeper than zero_tol has the sign of outward * slope
            bent = (np.abs(slopes) > zero_tol) & (signs[:, end] != outward * np.sign(slopes))
            if tails_settled[side] or not bent.any():
                continue
            reach = -outward * z[bent, end] / slopes[bent]
            reach = reach[reach > 0]
            last = reach.max(initial=0.0)
            spacing = abs(grid[end] - grid[inner])
            beyond[side] = grid[end] + outward * np.append(reach, last + max(last, spacing))

        points = np.concatenate([crossings] + beyond)
        _check_finite(points, "crossing set")
        # only a point that joins the grid settles its interval or tail
        new, joined = _merged(points, grid, tol.merge_tol)
        joined = np.split(joined, np.cumsum([cells.size, beyond[0].size]))
        settled[cells[joined[0]]] = True
        tails_settled = [done or part.any() for done, part in zip(tails_settled, joined[1:])]
        found.append(new)
        tails = np.where(_grows_outward(tails, outwards, zero_tol), tails, 0.0) @ layer.A.T + layer.c
    return np.sort(np.concatenate(found))


def _interpolated(a, za, b, zb):
    """Zero of the line through (a, za) and (b, zb), from the end nearer to it."""
    return np.where(np.abs(za) <= np.abs(zb),
                    a + (b - a) * (za / (za - zb)), b + (b - a) * (zb / (za - zb)))


def _polished(net: ReluNetwork, k: int, units, a, za, b, zb, tol: Tolerances) -> np.ndarray:
    """Crossings of the given units of hidden layer k, each bracketed by
    a < b where its values za, zb have strictly opposite signs."""
    a, za, b, zb = (np.array(ends, dtype=float) for ends in (a, za, b, zb))
    x = _interpolated(a, za, b, zb)
    kept = np.zeros(x.size)  # the end the last step kept: -1 for a, +1 for b
    todo = np.arange(x.size)
    for _ in range(_POLISH_STEPS):
        todo = todo[b[todo] - a[todo] > tol.merge_tol]
        if todo.size == 0:
            break
        _, z, signs = next(islice(_hidden_layers(net, x[todo], tol.zero_tol), k, None))
        columns = np.arange(todo.size)
        at, side = z[units[todo], columns], signs[units[todo], columns] * np.sign(za[todo])
        # the crossing lies beyond x from the end whose sign x shares
        to_a, to_b = todo[side > 0], todo[side < 0]
        a[to_a], za[to_a] = x[to_a], at[side > 0]
        b[to_b], zb[to_b] = x[to_b], at[side < 0]
        # an end kept twice running counts half (the Illinois rule), so the
        # flat side of a bent unit does not hold the point at the other end
        zb[to_a[kept[to_a] > 0]] *= 0.5
        za[to_b[kept[to_b] < 0]] *= 0.5
        kept[to_a], kept[to_b] = 1.0, -1.0
        todo = todo[side != 0]
        x[todo] = _interpolated(a[todo], za[todo], b[todo], zb[todo])
    return x


def _merged(points: np.ndarray, grid: np.ndarray, merge_tol: float):
    """(new, joined): the points merged into the grid by ``core._merge_groups``.

    The grid points are the originals, so a group with a grid point is that
    point, and any other group its smallest point.  ``new`` holds the
    latter, sorted; joined[i] is False where points[i] merged into the grid.
    """
    if points.size == 0:
        return points, np.zeros(0, dtype=bool)
    order, first, at = _merge_groups(np.concatenate((grid, points)), grid.size, merge_tol)
    group = np.empty_like(order)
    group[order] = np.repeat(np.arange(first.size), np.diff(first, append=order.size))
    on_grid = np.zeros(first.size, dtype=bool)
    on_grid[group[:grid.size]] = True
    return at[~on_grid], ~on_grid[group[grid.size:]]


def equivalence_error(net: ReluNetwork, spline: CplSpline, grid) -> float:
    """max over the grid of |network - spline| / (1 + |network|), 0 on an empty grid.

    A value of either on the grid that is not finite raises ValueError.
    """
    with np.errstate(all="ignore"):
        f = eval_network(net, grid)
        s = eval_spline(spline, grid)
    _check_finite(f, "network evaluation")
    _check_finite(s, "spline evaluation")
    return float(np.max(np.abs(f - s) / (1.0 + np.abs(f)), initial=0.0))
