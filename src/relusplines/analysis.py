"""Breakpoint counting and closed-form coefficients."""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    CplSpline,
    DimensionMismatchError,
    KnotHierarchy,
    Tolerances,
    _frozen_array,
)

__all__ = ["active_knots", "coeffs_from_knots"]


def active_knots(spline: CplSpline, tol: Tolerances = DEFAULT_TOL) -> list[tuple[float, float]]:
    """Sorted (knot, coefficient) pairs with |coefficient| > zero_tol."""
    keep = np.abs(spline.coeffs) > tol.zero_tol
    knots, coeffs = spline.knots[keep], spline.coeffs[keep]
    # by knot, then coefficient; both sorts are stable, so ties keep their order
    order = np.lexsort((coeffs, knots))
    return list(zip(knots[order].tolist(), coeffs[order].tolist()))


def coeffs_from_knots(h: KnotHierarchy, a3, c_signs) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form hinge coefficients of a normalized two-hidden network.

    Returns (level2_coeffs, level1_coeffs) where level2_coeffs[j, v] is the
    coefficient placed at h.level2[j, v] by unit j and level1_coeffs[v] the
    total at h.level1[v].  ``a3`` is the output row and ``c_signs`` the
    interior source signs of the normalized network realizing the
    hierarchy; coefficients come from the interlacing ratios alone, no
    network evaluation involved.
    """
    a3 = _frozen_array(a3, ndim=1, name="a3")
    c_signs = _frozen_array(c_signs, ndim=1, name="c_signs")
    n1, n2 = h.n1, h.n2
    if a3.shape[0] != n2 or c_signs.shape[0] != n2:
        raise DimensionMismatchError(f"a3 and c_signs must have length {n2}")
    x = h.level1
    ratios = (x[None, :] - h.level2[:, :-1]) / (x[None, :] - h.level2[:, 1:])
    abs_products = np.cumprod(np.abs(ratios), axis=1)
    level2 = np.column_stack((a3, a3[:, None] * abs_products))
    signed_products = np.column_stack((np.ones(n2), np.cumprod(ratios, axis=1)))
    steps = (h.level2[:, 1:] - h.level2[:, :-1]) / (x[None, :] - h.level2[:, 1:])
    parity = np.where(np.arange(1, n1 + 1) % 2 == 1, 1.0, -1.0)
    level1 = 0.5 * np.sum(
        a3[:, None] * steps * signed_products[:, :-1] * (parity[None, :] + c_signs[:, None]),
        axis=0,
    )
    return level2, level1
