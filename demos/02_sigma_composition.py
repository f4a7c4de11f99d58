"""What one ReLU does to a spline.

Applying sigma = max(0, .) to a piecewise-linear function keeps the
pieces where it is positive, flattens the pieces where it is negative,
and inserts a new knot at every sign crossing.  sigma_compose performs
that in closed form; here we watch it work on a zigzag that is positive
on two islands and negative in between.
"""

import numpy as np

import relusplines as rs

# Left tail t + 2.5, then slopes -2, +2, -1: positive on two islands
# around t = -1 and t = 3, negative on the three regions between.
zigzag = rs.CplSpline(1.0, 2.5, [-1.0, 1.0, 3.0], [-3.0, 4.0, -3.0])

clipped = rs.sigma_compose(zigzag)

print("before:", len(zigzag.knots), "knots at", zigzag.knots.tolist())
print("after: ", len(clipped.knots), "knots at",
      np.round(clipped.knots, 6).tolist())

# New knots appear exactly where the zigzag crosses zero; the knot at
# t = 1 disappears because both pieces around it get flattened.
added = [x for x in clipped.knots if np.min(np.abs(zigzag.knots - x)) > 1e-12]
dropped = [x for x in zigzag.knots if np.min(np.abs(clipped.knots - x)) > 1e-12]
print("inserted at zero crossings:", np.round(added, 6).tolist())
print("dropped inside a clipped region:", np.round(dropped, 6).tolist())
print("left tail flattens: q1 %g -> %g, q0 %g -> %g"
      % (zigzag.q1, clipped.q1, zigzag.q0, clipped.q0))

# The composed spline agrees with pointwise clipping everywhere.
grid = rs.probe_grid(np.unique(np.concatenate((zigzag.knots, clipped.knots))))
deviation = np.max(np.abs(rs.eval_spline(clipped, grid)
                          - np.maximum(0.0, rs.eval_spline(zigzag, grid))))
print(f"max |sigma_compose(s) - max(0, s)| on the grid: {deviation:.2e}")

# A nonnegative spline is a fixed point: sigma changes nothing.
bump = rs.CplSpline(0.0, 0.0, [0.0, 1.0, 2.0], [1.0, -2.0, 1.0])
again = rs.sigma_compose(bump)
print("\nnonnegative input is returned unchanged:",
      again.q1 == bump.q1 and again.q0 == bump.q0
      and np.array_equal(again.knots, bump.knots)
      and np.array_equal(again.coeffs, bump.coeffs))

# Each pass at most doubles the knot count plus one (every piece can
# contribute one crossing), which is why depth buys knots geometrically.
print(f"knot growth this pass: {len(zigzag.knots)} -> {len(clipped.knots)}"
      f" (bound {2 * len(zigzag.knots) + 1})")
