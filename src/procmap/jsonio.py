"""Deterministic JSON serialization and the wire encoding for complex matrices.

Every float is written with 17 significant digits so that doubles survive a
serialize/parse round trip bit-exactly, and so repeated runs produce
byte-identical artifacts.

`dumps` appends every piece of output to one chunk list and joins it once, so
no nested value's text is copied at each enclosing level; strings are quoted as
`json.dumps` quotes them.

A float table (a non-empty list or tuple of equally long, non-empty lists or
tuples whose every leaf is a Python `float`, such as the `data` block of
`matrix_to_json` or a large matrix carried in a scenario) is written with a
single `%`-format over all its leaves instead of one `format_float` call per
leaf.  Its bytes are exactly those the per-element path would write: `%.17g`
is `format(x, ".17g")`, and the integral values below 1e17 in magnitude, the
only ones where `format_float` appends ".0", get a `%.1f` slot instead; row
templates are cached.  Every other value, including tables holding ints, bools
or numpy scalars, takes the per-element path.
"""

from __future__ import annotations

import functools
import itertools
import math
from json.encoder import encode_basestring_ascii
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


def _emit(obj: Any, indent: int, level: int, out: list[str]) -> None:
    """Append the text of `obj`, nested at `level`, to the chunk list `out`."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)) and obj and _is_float_table(obj):
        out.append(_emit_float_table(obj, indent, level))
    elif isinstance(obj, (list, tuple, dict)):
        is_dict = isinstance(obj, dict)
        brackets = "{}" if is_dict else "[]"
        if not obj:
            out.append(brackets)
            return
        pad = "\n" + " " * (indent * (level + 1))
        head = brackets[0] + pad
        for key, value in obj.items() if is_dict else enumerate(obj):
            if is_dict:
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {key!r}")
                head += encode_basestring_ascii(key) + ": "
            out.append(head)
            _emit(value, indent, level + 1, out)
            head = "," + pad
        out.append("\n" + " " * (indent * level) + brackets[1])
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _is_float_table(rows: list | tuple) -> bool:
    """True when `rows` holds lists or tuples of one common non-zero length, all of floats."""
    return (
        set(map(type, rows)) <= {list, tuple}
        and len(set(map(len, rows))) == 1
        and len(rows[0]) > 0
        and set(map(type, itertools.chain.from_iterable(rows))) == {float}
    )


@functools.lru_cache(maxsize=64)
def _row_template(slots: tuple[str, ...], indent: int, level: int) -> str:
    """One row of a float table at `level`, with one `%` slot per leaf."""
    pad = " " * (indent * (level + 1))
    leaf_pad = " " * (indent * (level + 2))
    return pad + "[\n" + ",\n".join(leaf_pad + slot for slot in slots) + "\n" + pad + "]"


def _emit_float_table(rows: list | tuple, indent: int, level: int) -> str:
    """The per-element layout of a float table, written by one `%`-format."""
    flat = tuple(itertools.chain.from_iterable(rows))
    bad = next(itertools.filterfalse(math.isfinite, flat), None)
    if bad is not None:
        format_float(bad)  # raises the non-finite error
    ncols = len(rows[0])
    # Every row shares one template; only a row holding an integral value gets
    # its own, with "%.1f" exactly where format_float would append ".0".
    templates = [_row_template(("%.17g",) * ncols, indent, level)] * len(rows)
    for i in itertools.compress(range(len(flat)), map(float.is_integer, flat)):
        slots = tuple("%.1f" if x.is_integer() and abs(x) < 1e17 else "%.17g" for x in rows[i // ncols])
        templates[i // ncols] = _row_template(slots, indent, level)
    return ("[\n" + ",\n".join(templates) + "\n" + " " * (indent * level) + "]") % flat


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize `obj` to a deterministic JSON string (trailing newline)."""
    out: list[str] = []
    _emit(obj, indent, 0, out)
    out.append("\n")
    return "".join(out)


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
