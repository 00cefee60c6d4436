"""Deterministic JSON serialization and the wire encoding for complex matrices.

Every float is written with 17 significant digits so that doubles survive a
serialize/parse round trip bit-exactly, and so repeated runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    """Render a finite double with enough digits to round-trip exactly."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"  # keep JSON type float; preserves -0.0 through a round trip
    return text


def _emit(obj: Any, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_emit(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(pad + it for it in items) + "\n" + close_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(pad + json.dumps(key) + ": " + _emit(value, indent, level + 1))
        return "{\n" + ",\n".join(parts) + "\n" + close_pad + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize `obj` to a deterministic JSON string (trailing newline)."""
    return _emit(obj, indent, 0) + "\n"


def matrix_to_json(mat: np.ndarray) -> dict:
    """Encode a complex matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    rows, cols = arr.shape
    data = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix encoding produced by `matrix_to_json`; entries must be finite."""
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        re, im = pair
        flat[i] = complex(float(re), float(im))
    if not np.isfinite(flat).all():
        raise ValueError("matrix JSON contains non-finite values")
    return flat.reshape(rows, cols)
