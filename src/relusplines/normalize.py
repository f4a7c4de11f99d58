"""Positive-scaling normal form.

relu(d x) = d relu(x) for d > 0, so the magnitude of every interior source
weight can be pushed into the following layer.  After normalization the
first layer is A1 = 1, b1 = -knots (sorted), and every interior source
channel entry is -1, 0 or +1; networks already in this form pass through
bit for bit.

One pass computes the form.  Each first-layer unit relu(a t + b) equals
|a| relu(t - x) at its hinge x = -b/a, up to an affine part; the units are
sorted by hinge, and |a| and the affine part fold into layer 2.  The pass
then walks the later layers once: layer l is divided by D = diag(|c_l|)
and D moves into layer l + 1, so every layer is built once.
"""

from __future__ import annotations

import numpy as np

from .core import (DEFAULT_TOL, DegenerateFirstLayerError, Layer, ReluNetwork, Tolerances,
                   _merge_groups)

__all__ = ["positive_scale_normalize", "is_normalized"]


def positive_scale_normalize(net: ReluNetwork, tol: Tolerances = DEFAULT_TOL) -> ReluNetwork:
    """Equal function, unit first-layer weights, sign-only interior channels.

    Layer 1 becomes A1 = 1, b1 = -knots with the hinges sorted; then layer
    l is divided by D = diag(|c_l|) (entries within zero_tol of zero keep
    scale 1) and layer l + 1 is multiplied by D on the right.  Dead units or
    coinciding hinges (hinges ``core._merge_groups`` joins, as it joins
    knots) raise DegenerateFirstLayerError with one unit per group as the
    effective width, and an overflow raises the ValueError of the ``Layer``
    check.
    """
    first, second = net.layers[:2]
    a1 = first.A[:, 0]
    n1 = a1.shape[0]
    # an overflow surfaces as a ValueError from the Layer checks; the hinges'
    # check comes first, so an infinite hinge is not taken for a coinciding one
    with np.errstate(all="ignore"):
        live = np.abs(a1) > tol.zero_tol
        hinges = -first.b[live] / a1[live]
        # hinges the merge joins coincide; one unit is left per group
        order, groups, _ = _merge_groups(hinges, 0, tol.merge_tol)
        knots = hinges[order]
        layers = [Layer(np.ones((knots.shape[0], 1)), -knots)]
        if groups.shape[0] < n1:
            problem = "dead units" if knots.shape[0] < n1 else "coinciding hinges"
            width = groups.shape[0]
            raise DegenerateFirstLayerError(
                f"first layer has {problem}; effective width {width} of {n1}", width
            )
        # every unit is live; a falling one leaves its line a1 t + b1 on the left
        folded = Layer(
            (second.A * np.abs(a1))[:, order],
            second.b + second.A @ np.where(a1 < 0, first.b, 0.0),
            second.c - second.A @ np.maximum(-a1, 0.0),
        )
        # checked before rescaling: dividing by an infinite |c2| would hide it
        A, b, c = folded.A, folded.b, folded.c
        for successor in net.layers[2:]:
            magnitude = np.abs(c)
            signed = magnitude > tol.zero_tol
            d = np.where(signed, magnitude, 1.0)
            layers.append(Layer(A / d[:, None], b / d, np.where(signed, np.sign(c), 0.0)))
            A, b, c = successor.A * d[None, :], successor.b, successor.c
        layers.append(Layer(A, b, c))
    return ReluNetwork(tuple(layers))


def is_normalized(net: ReluNetwork, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when A1 is all ones and interior source entries are in {-1, 0, 1}."""
    if not np.all(np.abs(net.layers[0].A[:, 0] - 1.0) <= tol.zero_tol):
        return False
    for layer in net.layers[1:-1]:
        near_sign = np.abs(np.abs(layer.c) - 1.0) <= tol.zero_tol
        near_zero = np.abs(layer.c) <= tol.zero_tol
        if not np.all(near_sign | near_zero):
            return False
    return True
