"""A third hidden layer, and why its signs need choosing.

With three hidden layers the construction stacks twice: the third layer
re-clips the second-layer output, and every earlier knot survives only
if some third-layer unit keeps it through the last ReLU.  The build picks
the unit signs greedily so the whole prescription stays active; here we
run it on fourteen knots packed into a (2, 2, 2) architecture, then fix
the signs by hand to a choice that loses a knot.
"""

import numpy as np

import relusplines as rs

knots = np.arange(1.0, 15.0)
h = rs.hierarchy_from_flat(knots, 2, 2, 2)
print("level 1:", h.level1.tolist())
print("level 2:", h.level2.tolist())
print("level 3:", h.level3.tolist())

# Width 2 is below log2(8), so greedy signs need not cover every knot;
# the synthesis checks activity once and either returns a network with
# every prescribed knot active or raises ActivityError naming the misses.
net = rs.synth_three_hidden(h)

spline = rs.dnn_to_spline(net)
print(f"\nsynthesized widths {net.widths}")
print(f"spline tail q = ({spline.q1:g}, {spline.q0:g})")

wanted = rs.prescribed_knots(h)
got = np.array([x for x, _ in rs.active_knots(spline)])
covered = all(np.min(np.abs(got - w)) <= 1e-9 for w in wanted)
print(f"all {len(wanted)} prescribed knots active:", covered)

# Depth pays for itself: the deepest layer multiplies the knot count,
# and one extra knot appears where a second-layer unit crosses zero
# beyond the prescription.
extra = [x for x in got if np.min(np.abs(knots - x)) > 1e-9]
print("emergent extra knot:", [f"{x:.6f} = 431/29" for x in extra])
print("knot budget for (1, 2, 2, 2, 1):", rs.knot_bound(net.widths))

# The signs matter: with both third-layer units taken positive no unit
# keeps the knot at 6, and the activity check says so instead of
# returning a network that lacks it.  The default signs, read off the
# default final row -eps, keep it.
print("\ndefault signs eps:", (-net.layers[-1].A[0]).tolist())
try:
    rs.synth_three_hidden(h, eps=[1.0, 1.0])
except rs.ActivityError as err:
    print("fixed eps = [1, 1] rejected:", err, "| inactive:", err.inactive)
