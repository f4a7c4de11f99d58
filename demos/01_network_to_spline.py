"""From a ReLU network to its exact spline, and back.

A 1-D ReLU network with source channels is a continuous piecewise-linear
function, so it has a closed-form spline representation: a slope, an
intercept, and one coefficient per knot.  This script converts a small
depth-3 network both ways and checks that nothing was lost.
"""

import numpy as np

import relusplines as rs

# A network of widths (1, 3, 3, 1).  The second layer mixes the three
# first-layer hinges; the output layer just sums.
net = rs.ReluNetwork(
    (
        rs.Layer([[1.0], [-1.0], [-1.0]], [-1.0, 2.0, 3.0]),
        rs.Layer(
            [[-2.0, 2.0, -3.0], [-1.0, 1.0, -1.5], [1.0, -2.0, 2.5]],
            [4.5, 2.2, -3.3],
            [0.0, 0.0, 0.0],
        ),
        rs.Layer([[1.0, 1.0, 1.0]], [0.0], [0.0]),
    )
)

spline = rs.dnn_to_spline(net)

print("tail:  s(t) = %+g t %+g  left of the first knot" % (spline.q1, spline.q0))
print("knots and coefficients:")
for x, coeff in rs.active_knots(spline):
    print(f"  x = {x:10.6f}   alpha = {coeff:+.4f}")

# The architecture admits at most prod(width + 1) - 1 knots; this network
# was picked to reach that budget exactly.
bound = rs.knot_bound(net.widths)
print(f"\nknot budget: observed {spline.n_knots} of {bound}"
      f" possible -> {'tight' if spline.n_knots == bound else 'slack'}")

# Sample both forms on a grid that straddles every linear piece.  The
# certificate adds any zero crossing of a hidden unit the spline's knots
# missed, so the network is affine between grid points and beyond them,
# and agreement on the grid means agreement everywhere.
grid, _ = rs.certified_grid(net, rs.probe_grid(spline.knots))
gap = rs.equivalence_error(net, spline, grid)
print(f"max relative gap between network and spline on {grid.size} points: {gap:.2e}")

# Any canonical spline is also a one-hidden-layer network: one unit per
# knot plus a source channel for the left tail.
shallow = rs.spline_to_shallow(spline)
print(f"\nrebuilt as a shallow network of widths {shallow.widths}")
roundtrip = rs.dnn_to_spline(shallow)
print("round trip returns the identical spline:",
      roundtrip.q1 == spline.q1 and roundtrip.q0 == spline.q0
      and np.array_equal(roundtrip.knots, spline.knots)
      and np.array_equal(roundtrip.coeffs, spline.coeffs))
