"""JSON and CSV interchange for networks, splines and hierarchies.

Network files: {"widths": [...], "layers": [{"A": [[...]], "b": [...]},
{"A": ..., "b": ..., "c": ...}, ...]} with non-negative integer widths
and row-major matrices; a missing "c" on layers past the first means a
zero vector.  Spline files: {"q1": ..., "q0": ..., "knots": [...],
"coeffs": [...]}.  Hierarchy files: {"level1": [...], "level2": [[...]],
"level3": [[...]]} with level3 optional; flat knot files: {"knots":
[...]}.  A matrix with no rows is written [], its column count implied
by the widths or the level below.  Floats are written with shortest
round-trip formatting, so load(dump(x)) is bit-identical.  CSV fields
are the same shortest decimals, made a block of rows at a time by the
numpy kernel in ``_shortest`` rather than by ``repr``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import CplSpline, DimensionMismatchError, KnotHierarchy, Layer, ReluNetwork

__all__ = [
    "SchemaError",
    "network_to_obj",
    "network_from_obj",
    "spline_to_obj",
    "spline_from_obj",
    "hierarchy_to_obj",
    "hierarchy_from_obj",
    "flat_knots_from_obj",
    "load_json",
    "dump_json",
    "detect_and_load",
    "write_csv",
]


class SchemaError(ValueError):
    """A file does not match the documented layout; names the bad field."""


def _number(obj, field: str) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise SchemaError(f"{field} must be a number")
    try:
        return float(obj)
    except OverflowError as err:
        raise SchemaError(f"{field} is out of range for a double") from err


def _vector(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"{field} must be a list of numbers")
    # plain ints and floats, as json gives them, convert in one call, each
    # to float(v); other types (bool, str, numpy floats) and ints beyond a
    # double take the per-element loop, which names the bad entry
    if set(map(type, obj)) <= {int, float}:
        try:
            return np.array(obj, dtype=float)
        except OverflowError:
            pass
    return np.array([_number(v, f"{field}[{i}]") for i, v in enumerate(obj)])


def _matrix(obj, field: str, columns: int) -> np.ndarray:
    """A list of equal-length rows; [] is zero rows of ``columns`` entries."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{field} must be a list of rows")
    rows = [_vector(r, f"{field}[{i}]") for i, r in enumerate(obj)]
    if rows and any(r.shape != rows[0].shape for r in rows):
        raise SchemaError(f"{field} rows have unequal lengths")
    return np.array(rows) if rows else np.empty((0, columns))


def _require_keys(obj, required, optional, what: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{what} is missing field {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{what} has unknown field {key!r}")


def network_to_obj(net: ReluNetwork) -> dict:
    layers = [{"A": net.layers[0].A.tolist(), "b": net.layers[0].b.tolist()}]
    for layer in net.layers[1:]:
        layers.append({"A": layer.A.tolist(), "b": layer.b.tolist(), "c": layer.c.tolist()})
    return {"widths": list(net.widths), "layers": layers}


def network_from_obj(obj) -> ReluNetwork:
    _require_keys(obj, ("widths", "layers"), (), "network")
    widths = obj["widths"]
    if not isinstance(widths, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) and w >= 0 for w in widths
    ):
        raise SchemaError("widths must be a list of non-negative integers")
    layers_raw = obj["layers"]
    if not isinstance(layers_raw, list):
        raise SchemaError("layers must be a list")
    if len(widths) != len(layers_raw) + 1:
        raise DimensionMismatchError(
            f"widths lists {len(widths)} sizes but there are {len(layers_raw)} layers"
        )
    layers = []
    for i, layer_obj in enumerate(layers_raw):
        field = f"layers[{i}]"
        _require_keys(layer_obj, ("A", "b"), ("c",) if i else (), field)
        a = _matrix(layer_obj["A"], f"{field}.A", widths[i])
        b = _vector(layer_obj["b"], f"{field}.b")
        expected = (widths[i + 1], widths[i])
        if a.shape != expected:
            raise DimensionMismatchError(
                f"{field}.A has shape {a.shape}, widths require {expected}"
            )
        if "c" in layer_obj:
            c = _vector(layer_obj["c"], f"{field}.c")
        else:
            c = np.zeros(widths[i + 1]) if i else None
        layers.append(Layer(a, b, c))
    return ReluNetwork(tuple(layers))


def spline_to_obj(spline: CplSpline) -> dict:
    return {
        "q1": spline.q1,
        "q0": spline.q0,
        "knots": spline.knots.tolist(),
        "coeffs": spline.coeffs.tolist(),
    }


def spline_from_obj(obj) -> CplSpline:
    _require_keys(obj, ("q1", "q0", "knots", "coeffs"), (), "spline")
    return CplSpline(
        _number(obj["q1"], "q1"),
        _number(obj["q0"], "q0"),
        _vector(obj["knots"], "knots"),
        _vector(obj["coeffs"], "coeffs"),
    )


def hierarchy_to_obj(h: KnotHierarchy) -> dict:
    obj = {"level1": h.level1.tolist(), "level2": h.level2.tolist()}
    if h.level3 is not None:
        obj["level3"] = h.level3.tolist()
    return obj


def hierarchy_from_obj(obj) -> KnotHierarchy:
    _require_keys(obj, ("level1", "level2"), ("level3",), "hierarchy")
    levels = [_vector(obj["level1"], "level1")]
    for field in [key for key in ("level2", "level3") if key in obj]:
        levels.append(_matrix(obj[field], field, len(levels[-1]) + 1))
    return KnotHierarchy(*levels)


def flat_knots_from_obj(obj) -> np.ndarray:
    _require_keys(obj, ("knots",), (), "flat knots")
    return _vector(obj["knots"], "knots")


def load_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return obj


def dump_json(path, obj: dict):
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def detect_and_load(path):
    """Load a network or spline file, telling them apart by their fields."""
    obj = load_json(path)
    if "widths" in obj:
        return network_from_obj(obj)
    if "q1" in obj:
        return spline_from_obj(obj)
    raise SchemaError(f"{path}: neither a network (widths) nor a spline (q1)")


# rows per stream.write: formatting a block peaks at about 0.5 KB a row
# (2.1 MB at 4096 rows), and a 4096-row block costs less per row than a
# 2048-row one, as each block pays the kernel's fixed run of numpy calls,
# one translate and one write
_CSV_BLOCK_ROWS = 4096


def write_csv(stream, ts, values, header: bool = False):
    """Write ``t,value`` rows, each field the shortest round-trip decimal.

    A field is Python's ``repr`` of the double minus a trailing ``.0``, so
    1.0 is written ``1``, -0.0 ``-0``, 1e16 ``1e+16``, an overflowed value
    ``inf`` and any nan ``nan``.  Each row ends in a newline; ``header``
    prepends a ``t,value`` row.  ``ts`` and ``values`` must be equal-length
    1-D columns.  Rows go out in blocks of a fixed number of rows, one
    ``stream.write`` per block, so memory beyond the two columns does not
    grow with their length.  Each block is formatted by the vectorized
    shortest-decimal kernel in ``_shortest`` (Ryū), which gives the same
    bytes as ``repr`` for every double.
    """
    # imported on first use, so that importing the package does not build
    # the kernel's tables
    from . import _shortest

    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.ndim != 1 or values.shape != ts.shape:
        raise DimensionMismatchError(
            f"CSV columns must be equal-length 1-D arrays, got shapes {ts.shape} and {values.shape}"
        )
    if header:
        stream.write("t,value\n")
    rows = min(_CSV_BLOCK_ROWS, ts.size)
    # t then value for each row, in a native float64 copy
    lanes = np.empty((rows, 2))
    # each field padded with zeros, its last byte then "," or "\n"
    text = np.zeros((rows, 2, _shortest.WIDTH), np.uint8)
    ends = np.array([ord(","), ord("\n")], np.uint8)
    for start in range(0, ts.size, _CSV_BLOCK_ROWS):
        n = min(_CSV_BLOCK_ROWS, ts.size - start)
        lanes[:n, 0] = ts[start : start + n]
        lanes[:n, 1] = values[start : start + n]
        _shortest.fields(lanes[:n].reshape(-1), text[:n].reshape(2 * n, -1))
        text[:n, :, -1] = ends
        stream.write(text[:n].tobytes().translate(None, b"\0").decode("ascii"))
