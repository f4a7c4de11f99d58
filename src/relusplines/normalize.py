"""Positive-scaling normal form.

relu(d x) = d relu(x) for d > 0, so the magnitude of every interior source
weight can be pushed into the following layer.  After normalization the
first layer is A1 = 1, b1 = -knots (sorted), and every interior source
channel entry is -1, 0 or +1; networks already in this form pass through
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, Layer, ReluNetwork, Tolerances
from .transfer import first_layer_canonicalize

__all__ = ["positive_scale_normalize", "is_normalized"]


def positive_scale_normalize(net: ReluNetwork, tol: Tolerances = DEFAULT_TOL) -> ReluNetwork:
    """Equal function, unit first-layer weights, sign-only interior channels.

    Works upward through the hidden layers: layer l is divided by
    D = diag(|c_l|) (entries within zero_tol of zero keep scale 1) and
    layer l + 1 is multiplied by D on the right.  Degenerate first layers
    raise DegenerateFirstLayerError as in first_layer_canonicalize.
    """
    _, net = first_layer_canonicalize(net, tol)
    layers = list(net.layers)
    # an overflow surfaces as the ValueError of the Layer check
    with np.errstate(all="ignore"):
        for i in range(1, len(layers) - 1):
            layer = layers[i]
            magnitude = np.abs(layer.c)
            live = magnitude > tol.zero_tol
            d = np.where(live, magnitude, 1.0)
            signs = np.where(live, np.sign(layer.c), 0.0)
            layers[i] = Layer(layer.A / d[:, None], layer.b / d, signs)
            successor = layers[i + 1]
            layers[i + 1] = Layer(successor.A * d[None, :], successor.b, successor.c)
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
