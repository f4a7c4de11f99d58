"""A third hidden layer, and why its signs need choosing.

With three hidden layers the construction stacks twice: the third layer
re-clips the second-layer output, and every earlier knot survives only
if some third-layer unit is strictly positive there.  epsilon_select
picks the unit signs greedily so the whole prescription stays active;
here we run it on fourteen knots packed into a (2, 2, 2) architecture.
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

# The sign selection itself: each third-layer unit sees the values of
# the second-layer functions at every earlier knot; a choice of +-1 per
# unit must leave every column positive somewhere.
values = np.array([[1.0, -2.0, 0.5], [-1.0, 2.0, 0.5]])
eps = rs.epsilon_select(values)
print("\nepsilon_select on a toy value table:", eps.tolist())
print("covered columns:", np.all((values * eps[:, None] > 0).any(axis=0)))

# When no choice works the failure is explicit and names the columns.
try:
    rs.epsilon_select(np.array([[1.0, -1.0, 0.0]]))
except rs.CoverageError as err:
    print("impossible table rejected:", err, "| uncovered columns:", err.uncovered)
