"""JSON and CSV interchange for networks, splines and hierarchies.

Network files: {"widths": [...], "layers": [{"A": [[...]], "b": [...]},
{"A": ..., "b": ..., "c": ...}, ...]} with row-major matrices; a missing
"c" on layers past the first means a zero vector.  Spline files:
{"q1": ..., "q0": ..., "knots": [...], "coeffs": [...]}.  Hierarchy
files: {"level1": [...], "level2": [[...]], "level3": [[...]]} with
level3 optional; flat knot files: {"knots": [...]}.  Floats are written
with shortest round-trip formatting, so load(dump(x)) is bit-identical.
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
    "format_float",
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
    return np.array([_number(v, f"{field}[{i}]") for i, v in enumerate(obj)])


def _matrix(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"{field} must be a list of rows")
    rows = [_vector(r, f"{field}[{i}]") for i, r in enumerate(obj)]
    if rows and any(r.shape != rows[0].shape for r in rows):
        raise SchemaError(f"{field} rows have unequal lengths")
    return np.array(rows) if rows else np.empty((0, 0))


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
    widths_raw = obj["widths"]
    if not isinstance(widths_raw, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) for w in widths_raw
    ):
        raise SchemaError("widths must be a list of integers")
    widths = [int(w) for w in widths_raw]
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
        if i == 0:
            _require_keys(layer_obj, ("A", "b"), (), field)
        else:
            _require_keys(layer_obj, ("A", "b"), ("c",), field)
        a = _matrix(layer_obj["A"], f"{field}.A")
        b = _vector(layer_obj["b"], f"{field}.b")
        expected = (widths[i + 1], widths[i])
        if a.size == 0:
            a = a.reshape(expected) if 0 in expected else a
        if a.shape != expected:
            raise DimensionMismatchError(
                f"{field}.A has shape {a.shape}, widths require {expected}"
            )
        if i == 0:
            layers.append(Layer(a, b))
        else:
            c = (
                _vector(layer_obj["c"], f"{field}.c")
                if "c" in layer_obj
                else np.zeros(widths[i + 1])
            )
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
    level3 = _matrix(obj["level3"], "level3") if "level3" in obj else None
    return KnotHierarchy(
        _vector(obj["level1"], "level1"), _matrix(obj["level2"], "level2"), level3
    )


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


def format_float(value: float) -> str:
    """Shortest decimal that parses back to the same double; 1.0 -> '1'."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def write_csv(stream, ts, values, header: bool = False):
    """t,value rows with '.' decimals, newline-terminated."""
    if header:
        stream.write("t,value\n")
    for t, v in zip(ts, values):
        stream.write(f"{format_float(t)},{format_float(v)}\n")
