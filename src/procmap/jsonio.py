"""Deterministic JSON serialization and the wire encoding for complex matrices.

Every float is written with 17 significant digits so that doubles survive a
serialize/parse round trip bit-exactly, and so repeated runs produce
byte-identical artifacts.

A float table (a non-empty list or tuple of equally long, non-empty lists or
tuples whose every leaf is a Python `float`, such as the `data` block of
`matrix_to_json` or a large matrix carried in a scenario) is written with a
single `%`-format over all its leaves instead of one `format_float` call per
leaf.  Its bytes are exactly those the per-element path would write: `%.17g`
is `format(x, ".17g")`, and the integral values below 1e17 in magnitude, the
only ones where `format_float` appends ".0", get a `%.1f` slot instead.
Every other value, including tables holding ints, bools or numpy scalars,
takes the per-element path.
"""

from __future__ import annotations

import itertools
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
        if _is_float_table(obj):
            return _emit_float_table(obj, indent, level)
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


def _is_float_table(rows: list | tuple) -> bool:
    """True when `rows` holds lists or tuples of one common non-zero length, all of floats."""
    return (
        set(map(type, rows)) <= {list, tuple}
        and len(set(map(len, rows))) == 1
        and len(rows[0]) > 0
        and set(map(type, itertools.chain.from_iterable(rows))) == {float}
    )


def _emit_float_table(rows: list | tuple, indent: int, level: int) -> str:
    """The per-element layout of a float table, written by one `%`-format."""
    flat = tuple(itertools.chain.from_iterable(rows))
    bad = next(itertools.filterfalse(math.isfinite, flat), None)
    if bad is not None:
        format_float(bad)  # raises the non-finite error
    pad = " " * (indent * (level + 1))
    leaf_pad = " " * (indent * (level + 2))
    close_pad = " " * (indent * level)
    ncols = len(rows[0])

    def row_template(slots) -> str:
        return pad + "[\n" + ",\n".join(leaf_pad + slot for slot in slots) + "\n" + pad + "]"

    # Every row shares one template; only a row holding an integral value gets
    # its own, with "%.1f" exactly where format_float would append ".0".
    templates = [row_template(["%.17g"] * ncols)] * len(rows)
    for i in itertools.compress(range(len(flat)), map(float.is_integer, flat)):
        templates[i // ncols] = row_template(
            "%.1f" if x.is_integer() and abs(x) < 1e17 else "%.17g" for x in rows[i // ncols]
        )
    return ("[\n" + ",\n".join(templates) + "\n" + close_pad + "]") % flat


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
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"matrix rows and cols must be JSON integers, got {rows!r} and {cols!r}")
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols = {rows * cols}")
    pairs = np.array(data, dtype=float)
    if pairs.shape != (rows * cols, 2):
        raise ValueError(f"matrix data must be {rows * cols} [re, im] pairs, got shape {pairs.shape}")
    if not np.isfinite(pairs).all():
        raise ValueError("matrix JSON contains non-finite values")
    return pairs.view(complex)[:, 0].reshape(rows, cols)
