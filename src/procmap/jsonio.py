"""Deterministic JSON serialization and the wire encoding for complex matrices.

`dumps` is one standard-library C encoder for every call: one line, ASCII escapes, a trailing
newline.  Every float is written as its shortest repr, which parses back to the same double bit for
bit, the sign of zero included, so repeated runs give byte-identical artifacts.  A NaN or infinity
raises ValueError.  It skips the cycle scan, so a payload must be a tree, as `tolist()` and literals are.
`matrix_from_json` decodes one matrix a call and names none: a caller that decodes several names the one at fault.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import shown

_ENCODER = json.JSONEncoder(allow_nan=False, check_circular=False)


def dumps(obj) -> str:
    """Serialize `obj`, a tree, to a deterministic one-line JSON string (trailing newline)."""
    return _ENCODER.encode(obj) + "\n"


def matrix_to_json(mat: np.ndarray) -> dict:
    """Encode a complex matrix as {"rows", "cols", "data": [[re, im], ...]} row-major."""
    return matrices_to_json(np.asarray(mat, dtype=complex)[None])[0]


def matrices_to_json(stack) -> list[dict]:
    """Encode an (n, rows, cols) complex stack as n `matrix_to_json` encodings, with one tolist for all entries."""
    arr = np.ascontiguousarray(stack, dtype=complex)
    n, rows, cols = arr.shape  # a ValueError unless the stack is 3-d
    return [{"rows": rows, "cols": cols, "data": data} for data in arr.view(float).reshape(n, rows * cols, 2).tolist()]


def matrix_from_json(obj: dict, shape=None) -> np.ndarray:
    """Decode a `matrix_to_json` encoding, of `shape` when given; its entries must be finite JSON numbers."""
    try:
        rows, cols, length = obj["rows"], obj["cols"], len(data := obj["data"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if type(rows) is not int or type(cols) is not int or rows <= 0 or cols <= 0:
        raise ValueError(f"matrix rows and cols must be positive JSON integers, got {shown(rows)} and {shown(cols)}")
    shape = shape or (rows, cols)
    if (rows, cols) != shape or length != rows * cols:
        raise ValueError(f"matrix shapes must all be {shape[0]}x{shape[1]} with {shape[0] * shape[1]} "
                         f"[re, im] pairs, got {shown(rows)}x{shown(cols)} with {length}")
    try:  # every per-entry pass runs in C
        lengths, flat = set(map(len, data)), list(chain.from_iterable(data))
    except TypeError:  # an entry that is not a list
        lengths = {None}
    if not lengths <= {2}:
        raise ValueError("matrix data entries must be [re, im] pairs")
    if not set(map(type, flat)) <= {int, float}:
        bad = next(x for x in flat if type(x) not in (int, float))
        raise ValueError(f"matrix entries must be JSON numbers, got {shown(bad)}")
    try:
        values = np.fromiter(flat, float, count=len(flat))
    except OverflowError:  # an integer beyond the float range
        values = np.array([np.inf])
    if not np.isfinite(values).all():
        raise ValueError("matrix JSON contains non-finite values")
    return values.view(complex).reshape(shape)
