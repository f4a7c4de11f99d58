"""Scale redundancy and the sign normal form.

sigma(d x) = d sigma(x) for d > 0, so weights can be shuffled between
adjacent layers without changing the function.  positive_scale_normalize
removes that freedom: the first layer becomes unit hinges t - x, and
every interior source channel is rescaled to -1, 0, or +1.  Networks
that differ only by scaling then collapse to the same parameters.
"""

import numpy as np

import relusplines as rs

base = rs.ReluNetwork(
    (
        rs.Layer([[1.0], [-1.0], [-1.0]], [-1.0, 2.0, 3.0]),
        rs.Layer(
            [[-2.0, 2.0, -3.0], [-1.0, 1.0, -1.5], [1.0, -2.0, 2.5]],
            [4.5, 2.2, -3.3],
            [2.0, -0.5, 0.0],
        ),
        rs.Layer([[1.0, 1.0, 1.0]], [0.0], [0.0]),
    )
)

# Hand-rescale: multiply first-layer rows by (2, 5, 0.25) and divide the
# matching second-layer columns.  Same function, different numbers.
d = np.array([2.0, 5.0, 0.25])
rescaled = rs.ReluNetwork(
    (
        rs.Layer(base.layers[0].A * d[:, None], base.layers[0].b * d),
        rs.Layer(base.layers[1].A / d, base.layers[1].b, base.layers[1].c),
        base.layers[2],
    )
)

grid = rs.probe_grid(rs.dnn_to_spline(base).knots)
print("hand-rescaled copy agrees with the original:",
      np.allclose(rs.eval_network(base, grid), rs.eval_network(rescaled, grid)))

norm_a = rs.positive_scale_normalize(base)
norm_b = rs.positive_scale_normalize(rescaled)

same = all(
    np.allclose(la.A, lb.A) and np.allclose(la.b, lb.b)
    and (la.c is None or np.allclose(la.c, lb.c))
    for la, lb in zip(norm_a.layers, norm_b.layers)
)
print("both normalize to the same parameters:", same)

print("\nnormal form, layer by layer:")
print("  first layer rows:", norm_a.layers[0].A[:, 0].tolist(),
      " hinges at", (-norm_a.layers[0].b).tolist())
print("  interior source channel:", norm_a.layers[1].c.tolist(), "(signs only)")
print("  function preserved within",
      f"{np.max(np.abs(rs.eval_network(base, grid) - rs.eval_network(norm_a, grid))):.2e}")

# Normalizing twice changes nothing, bit for bit.
twice = rs.positive_scale_normalize(norm_a)
print("idempotent:", all(
    np.array_equal(la.A, lb.A) and np.array_equal(la.b, lb.b)
    for la, lb in zip(twice.layers, norm_a.layers)
))

# The normal form needs every first-layer hinge to be distinct; a network
# whose first layer has two units with the same hinge has no normal form
# of the same width.
try:
    rs.positive_scale_normalize(
        rs.ReluNetwork(
            (
                rs.Layer([[1.0], [2.0]], [1.0, 2.0]),  # both hinge at t = -1
                rs.Layer([[1.0, 1.0]], [0.0], [0.0]),
            )
        )
    )
except rs.DegenerateFirstLayerError as err:
    print("degenerate first layer rejected:", err)
