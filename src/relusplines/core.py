"""Value types shared by every module in the package.

Conventions:

* A network maps R -> R through L affine layers with ReLU between them.
  Layer 1 is t -> A1 t + b1 where A1 is an (n1, 1) column.  Every later
  layer also receives the raw input through a "source channel" vector c:

      F_l = A_l relu(F_{l-1}) + t c_l + b_l,   l = 2 .. L.

  Input and output widths are 1; hidden widths may be any size (a width-0
  hidden layer is the degenerate image of a knotless spline).
* A spline is s(t) = q1 t + q0 + sum_k coeffs[k] relu(t - knots[k]).
  A knot is "active" when its coefficient is nonzero.  Canonical form
  keeps only active knots, strictly increasing.  ``CplSpline`` itself only
  requires finite data of matching length, so raw (unsorted, duplicated)
  hinge collections can be carried into :func:`canonicalize`, the one-row
  case of ``_merge_columns``, which is the knot merge of every conversion.
* Hinges that would sit at -inf (flat inputs produce no breakpoint) are
  never materialized; every stored knot is finite.
* All arithmetic is float64.  Instances are frozen and their arrays are
  marked read-only, so values can be shared freely across threads.
* The value types are where inputs are checked, once, on construction;
  functions that take raw arrays build these types instead of checking.
  Input from callers is always checked this way.  Bundles and splines the
  library computes itself are wrapped by ``_wrap``, without a copy and
  without the full input checks: a bundle's member is a view of a checked
  bundle, and each layer step's bundle gets one finiteness scan
  (``SplineBundle._computed``), so an overflow still raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "ACTIVITY_TOL",
    "Layer",
    "ReluNetwork",
    "CplSpline",
    "SplineBundle",
    "KnotHierarchy",
    "canonicalize",
    "knot_bound",
    "DimensionMismatchError",
    "InterlacingError",
    "DegenerateFirstLayerError",
    "ActivityError",
    "CoverageError",
]


class DimensionMismatchError(ValueError):
    """Array shapes disagree with the declared layer widths."""


class InterlacingError(ValueError):
    """Prescribed knots violate the required nesting pattern."""


class DegenerateFirstLayerError(ValueError):
    """First layer has dead units or coinciding hinge locations.

    ``effective_width`` is the number of units that survive after dropping
    dead units and collapsing duplicate hinges.
    """

    def __init__(self, message: str, effective_width: int):
        super().__init__(message)
        self.effective_width = effective_width


class ActivityError(RuntimeError):
    """Synthesis produced a spline missing some prescribed knots.

    ``inactive`` lists the prescribed knot locations that came out inactive.
    """

    def __init__(self, message: str, inactive):
        super().__init__(message)
        self.inactive = [float(x) for x in inactive]


class CoverageError(RuntimeError):
    """Greedy sign selection left some knots uncovered.

    ``uncovered`` holds the offending column indices; ``partial`` the sign
    vector chosen so far (usable as a best effort).
    """

    def __init__(self, message: str, uncovered, partial=None):
        super().__init__(message)
        self.uncovered = [int(i) for i in uncovered]
        self.partial = None if partial is None else np.asarray(partial, float)


def _frozen_array(values, *, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _wrap(cls, **fields):
    """An instance of a frozen value type over arrays the library computed.

    Nothing is copied or checked: the arrays are fresh or already frozen,
    and only marked read-only here.  Callers' input never comes this way.
    """
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj = object.__new__(cls)
    # frozen dataclasses only block __setattr__; the instance dict is theirs
    obj.__dict__.update(fields)
    return obj


def _finite_float(value, name: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by every numeric decision in the package.

    zero_tol   absolute threshold below which a coefficient, weight or
               function value counts as zero
    merge_tol  knots closer than this are the same knot
    eval_tol   relative tolerance for function-equality verdicts
    """

    zero_tol: float = 1e-10
    merge_tol: float = 1e-12
    eval_tol: float = 1e-8

    def __post_init__(self):
        for name in ("zero_tol", "merge_tol", "eval_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.merge_tol > self.zero_tol:
            raise ValueError("merge_tol must not exceed zero_tol")


DEFAULT_TOL = Tolerances()

# absolute distance within which a prescribed knot counts as realized
ACTIVITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine layer.  ``c`` is the source-channel vector, None on layer 1."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self):
        A = _frozen_array(self.A, ndim=2, name="layer matrix")
        object.__setattr__(self, "A", A)
        b = _frozen_array(self.b, ndim=1, name="layer bias")
        object.__setattr__(self, "b", b)
        if b.shape[0] != A.shape[0]:
            raise DimensionMismatchError(
                f"bias length {b.shape[0]} does not match {A.shape[0]} output rows"
            )
        if self.c is not None:
            c = _frozen_array(self.c, ndim=1, name="source channel")
            if c.shape[0] != A.shape[0]:
                raise DimensionMismatchError(
                    f"source channel length {c.shape[0]} does not match {A.shape[0]} output rows"
                )
            object.__setattr__(self, "c", c)

    @property
    def out_width(self) -> int:
        return self.A.shape[0]

    @property
    def in_width(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Feed-forward ReLU network from R to R with source channels.

    ``layers[0]`` is the knot-placing layer (no source channel); all later
    layers carry one.  Widths chain: layer l maps width n_{l-1} to n_l with
    n_0 = n_L = 1.
    """

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) < 2:
            raise DimensionMismatchError("a network needs at least two affine layers")
        if layers[0].c is not None:
            raise DimensionMismatchError("layer 1 must not carry a source channel")
        if layers[0].in_width != 1:
            raise DimensionMismatchError("layer 1 must take a scalar input")
        for i, layer in enumerate(layers[1:], start=2):
            if layer.c is None:
                raise DimensionMismatchError(f"layer {i} is missing its source channel")
            if layer.in_width != layers[i - 2].out_width:
                raise DimensionMismatchError(
                    f"layer {i} expects width {layer.in_width} but layer {i - 1} "
                    f"produces width {layers[i - 2].out_width}"
                )
        if layers[-1].out_width != 1:
            raise DimensionMismatchError("the last layer must produce a scalar")

    @property
    def depth(self) -> int:
        """Number of affine layers L."""
        return len(self.layers)

    @property
    def widths(self) -> tuple[int, ...]:
        """(n_0, n_1, ..., n_L) with n_0 = n_L = 1."""
        return (1,) + tuple(layer.out_width for layer in self.layers)

    @classmethod
    def shallow(cls, a1, b1, a2, c2=0.0, b2=0.0) -> "ReluNetwork":
        """One-hidden-layer network sum_k a2[k] relu(a1[k] t + b1[k]) + c2 t + b2."""
        layer1 = Layer(np.reshape(a1, (-1, 1)), np.atleast_1d(b1))
        return cls((layer1, Layer(np.reshape(a2, (1, -1)), [b2], [c2])))


@dataclass(frozen=True, eq=False)
class CplSpline:
    """Continuous piecewise-linear function q1 t + q0 + sum coeffs relu(t - knots).

    Construction only checks finiteness and matching lengths.  Canonical
    form (knots strictly increasing, every coefficient nonzero) holds for
    every spline the library itself returns: conversion gets it from the
    knot merge of its last layer step, and :func:`canonicalize` establishes
    it for raw hinge collections.
    """

    q1: float
    q0: float
    knots: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q1", _finite_float(self.q1, "q1"))
        object.__setattr__(self, "q0", _finite_float(self.q0, "q0"))
        knots = _frozen_array(self.knots, ndim=1, name="knots")
        coeffs = _frozen_array(self.coeffs, ndim=1, name="coeffs")
        if knots.shape != coeffs.shape:
            raise DimensionMismatchError(
                f"{knots.shape[0]} knots but {coeffs.shape[0]} coefficients"
            )
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_knots(self) -> int:
        return self.knots.shape[0]

    def is_canonical(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        gaps_ok = bool(np.all(np.diff(self.knots) > tol.merge_tol))
        active = bool(np.all(np.abs(self.coeffs) > tol.zero_tol))
        return gaps_ok and active


@dataclass(frozen=True, eq=False)
class SplineBundle:
    """Several splines over one shared strictly increasing knot vector.

    Row j of ``coeff_matrix`` together with ``q1s[j]``, ``q0s[j]`` is the
    j-th member; entries may be zero where a member has no breakpoint.
    """

    knots: np.ndarray
    q1s: np.ndarray
    q0s: np.ndarray
    coeff_matrix: np.ndarray

    def __post_init__(self):
        knots = _frozen_array(self.knots, ndim=1, name="bundle knots")
        q1s = _frozen_array(self.q1s, ndim=1, name="q1s")
        q0s = _frozen_array(self.q0s, ndim=1, name="q0s")
        matrix = _frozen_array(self.coeff_matrix, ndim=2, name="coeff_matrix")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("bundle knots must be strictly increasing")
        if q1s.shape != q0s.shape or q1s.shape[0] != matrix.shape[0]:
            raise DimensionMismatchError("q1s/q0s length must match coeff_matrix rows")
        if matrix.shape[1] != knots.shape[0]:
            raise DimensionMismatchError("coeff_matrix columns must match knot count")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "q1s", q1s)
        object.__setattr__(self, "q0s", q0s)
        object.__setattr__(self, "coeff_matrix", matrix)

    @classmethod
    def _computed(cls, knots, q1s, q0s, coeff_matrix) -> "SplineBundle":
        """Wrap a bundle the library computed: one finiteness scan, no copy.

        Shapes and strictly increasing knots hold by construction (a layer
        step's merge, or rows of such a bundle flipped in sign).  A
        non-finite entry raises the constructor's ValueError, naming the
        first array that has one.
        """
        if not np.isfinite(np.concatenate((knots, q1s, q0s, coeff_matrix.ravel()))).all():
            arrays = {"bundle knots": knots, "q1s": q1s, "q0s": q0s, "coeff_matrix": coeff_matrix}
            name = next(name for name, arr in arrays.items() if not np.isfinite(arr).all())
            raise ValueError(f"{name} contains non-finite entries")
        return _wrap(cls, knots=knots, q1s=q1s, q0s=q0s, coeff_matrix=coeff_matrix)

    @property
    def width(self) -> int:
        return self.coeff_matrix.shape[0]

    def member(self, j: int) -> CplSpline:
        """The j-th spline, with zero coefficients kept in place.

        It shares the bundle's knots and its row of ``coeff_matrix``.
        """
        return _wrap(
            CplSpline,
            q1=float(self.q1s[j]),
            q0=float(self.q0s[j]),
            knots=self.knots,
            coeffs=self.coeff_matrix[j],
        )


def _check_cells(cells: np.ndarray, walls: np.ndarray, what: str):
    """Require column v of ``cells`` pairwise distinct and inside (walls[v], walls[v+1])."""
    outside = np.any((cells <= walls[:-1]) | (cells >= walls[1:]), axis=0)
    repeated = np.any(np.diff(np.sort(cells, axis=0), axis=0) <= 0, axis=0)
    bad = np.flatnonzero(outside | repeated)
    if bad.size:
        v = bad[0]
        if outside[v]:
            raise InterlacingError(
                f"{what} column {v} must lie strictly inside ({walls[v]}, {walls[v + 1]})"
            )
        raise InterlacingError(f"{what} column {v} must be pairwise distinct")


@dataclass(frozen=True, eq=False)
class KnotHierarchy:
    """Prescribed breakpoints for synthesis, nested level by level.

    level1      (n1,) strictly increasing
    level2      (n2, n1 + 1); column v lies strictly between level-1 knots
                v and v+1 (with -inf / +inf at the ends)
    level3      optional (n3, n2 + 1); all entries precede level1[0], and
                column j lies strictly between consecutive first-column
                level-2 knots (requires level2[:, 0] increasing)
    """

    level1: np.ndarray
    level2: np.ndarray
    level3: np.ndarray | None = None

    def __post_init__(self):
        level1 = _frozen_array(self.level1, ndim=1, name="level1")
        if level1.shape[0] < 1:
            raise InterlacingError("level1 needs at least one knot")
        if np.any(np.diff(level1) <= 0):
            raise InterlacingError("level1 knots must be strictly increasing")
        level2 = _frozen_array(self.level2, ndim=2, name="level2")
        if level2.shape[1] != level1.shape[0] + 1:
            raise DimensionMismatchError(
                f"level2 must have shape (n2, {level1.shape[0] + 1}), got {level2.shape}"
            )
        _check_cells(level2, np.concatenate(([-np.inf], level1, [np.inf])), "level-2")
        object.__setattr__(self, "level1", level1)
        object.__setattr__(self, "level2", level2)
        if self.level3 is not None:
            level3 = _frozen_array(self.level3, ndim=2, name="level3")
            if level3.shape[1] != level2.shape[0] + 1:
                raise DimensionMismatchError(
                    f"level3 must have shape (n3, {level2.shape[0] + 1}), got {level3.shape}"
                )
            col0 = level2[:, 0]
            if np.any(np.diff(col0) <= 0):
                raise InterlacingError(
                    "level2 first column must be increasing when level3 is present"
                )
            _check_cells(level3, np.concatenate(([-np.inf], col0, [level1[0]])), "level-3")
            object.__setattr__(self, "level3", level3)

    @property
    def n1(self) -> int:
        return self.level1.shape[0]

    @property
    def n2(self) -> int:
        return self.level2.shape[0]

    @property
    def n3(self) -> int:
        return 0 if self.level3 is None else self.level3.shape[0]


def _merge_columns(coords, is_new, columns, tol: Tolerances):
    """Merge knot columns within merge_tol; original knots win the coordinate.

    ``coords`` need not be sorted.  Columns in a merged group are summed;
    groups whose column is entirely <= zero_tol in magnitude are dropped.
    The knots come back strictly increasing and more than merge_tol apart,
    each column with an entry above zero_tol: one row is a canonical spline.
    A bundle without members (no rows) has no knots.
    """
    if columns.shape[0] == 0:
        return np.empty(0), np.empty((0, 0))
    coords = np.asarray(coords, dtype=float)
    is_new = np.asarray(is_new, dtype=bool)
    order = np.argsort(coords, kind="stable")
    coords = coords[order]
    is_new = is_new[order]
    columns = columns[:, order]
    out_x: list[float] = []
    out_cols: list[np.ndarray] = []
    n = coords.shape[0]
    i = 0
    while i < n:
        j = i + 1
        while j < n and coords[j] - coords[j - 1] <= tol.merge_tol:
            j += 1
        if j == i + 1:
            column = columns[:, i]
            coord = coords[i]
        else:
            column = columns[:, i:j].sum(axis=1)
            old = np.flatnonzero(~is_new[i:j])
            coord = coords[i + old[0]] if old.size else coords[i]
        if np.max(np.abs(column)) > tol.zero_tol:
            out_x.append(float(coord))
            out_cols.append(column)
        i = j
    if not out_x:
        return np.empty(0), np.empty((columns.shape[0], 0))
    # one C-ordered copy, not column_stack's Python call per column
    return np.array(out_x), np.array(out_cols).T.copy()


def canonicalize(spline: CplSpline, tol: Tolerances = DEFAULT_TOL) -> CplSpline:
    """Sort knots, merge near-duplicates, drop inactive coefficients.

    Knots within merge_tol of their predecessor are folded into one knot at
    the group's first (smallest) coordinate with coefficients summed;
    coefficients of magnitude <= zero_tol are removed.  This is
    ``_merge_columns`` on one row: converted splines come back bit for bit.
    """
    knots, columns = _merge_columns(
        spline.knots, np.zeros(spline.n_knots, bool), spline.coeffs[None, :], tol
    )
    return CplSpline(spline.q1, spline.q0, knots, columns[0])


def knot_bound(widths) -> int:
    """Upper bound prod(n_l + 1) - 1 on the active knots of a width chain.

    It is attained with one hidden layer (``spline_to_shallow``) and with
    two (``synth_two_hidden``); deeper chains can fall short of it.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 3:
        raise DimensionMismatchError("width chain needs at least one hidden layer")
    if widths[0] != 1 or widths[-1] != 1:
        raise DimensionMismatchError("input and output widths must be 1")
    if any(w < 0 for w in widths):
        raise DimensionMismatchError("widths must be non-negative")
    bound = 1
    for w in widths[1:-1]:
        bound *= w + 1
    return bound - 1
