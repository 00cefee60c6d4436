"""Deterministic JSON serialization and the wire encoding for complex matrices.

`dumps` is the standard library's encoder with a two-space indent and a
trailing newline.  Every float is written as its shortest repr, which parses
back to the same double bit for bit, the sign of zero included, so repeated
runs produce byte-identical artifacts.  A NaN or infinity anywhere in the
value raises ValueError.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


def dumps(obj) -> str:
    """Serialize `obj` to a deterministic JSON string (trailing newline)."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def matrix_to_json(mat: np.ndarray) -> dict:
    """Encode a complex matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    rows, cols = arr.shape
    data = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix encoding produced by `matrix_to_json`; entries must be finite JSON numbers."""
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
    try:  # both per-entry passes run in C
        lengths, flat = set(map(len, data)), list(itertools.chain.from_iterable(data))
    except TypeError:  # a row that is not a list
        lengths = None
    if lengths != {2}:
        raise ValueError(f"matrix data must be {rows * cols} [re, im] pairs")
    if not set(map(type, flat)) <= {int, float}:
        bad = next(x for x in flat if type(x) not in (int, float))
        raise ValueError(f"matrix entries must be JSON numbers, got {bad!r}")
    try:
        pairs = np.fromiter(flat, float, count=len(flat))
    except OverflowError:  # an integer beyond the float range
        pairs = np.array([math.inf])
    if not np.isfinite(pairs).all():
        raise ValueError("matrix JSON contains non-finite values")
    return pairs.view(complex).reshape(rows, cols)
