"""Shared output helpers: 12-significant-digit numbers, CSV/JSON tables."""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

# Rows assembled and written per byte buffer: memory does not grow with the table's text.
_CHUNK_ROWS = 1 << 16


def fmt(x) -> str:
    """Decimal text for one number: integers verbatim, floats to 12 significant digits."""
    if isinstance(x, bool):
        raise TypeError("bool is not a numeric cell")
    if isinstance(x, int):
        return str(x)
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return format(f, ".12g")


def round12(x: float) -> float:
    """Round to 12 significant digits (JSON serialisation boundary)."""
    return float(format(float(x), ".12g"))


def _json_float(x: float) -> str:
    return json.dumps(round12(x))


def _int_text(column, lo: int, hi: int):
    """Text of rows [lo, hi) of an integer column, right-aligned in a
    (rows, D + 1) byte matrix whose unused bytes are 0.

    The magnitude is taken in uint64, where negation wraps to the exact value
    (so -2**63 is written), and narrowed to int32 when it fits.  Each of the
    D divmod passes by 10 writes one digit column and counts one more digit
    for the rows whose quotient is still nonzero; the sign goes in front.
    """
    column = column[lo:hi]
    if column.dtype.kind == "u":
        magnitude, negative = column.astype(np.uint64), np.zeros(column.size, dtype=bool)
    else:
        magnitude = column.astype(np.int64)
        negative = magnitude < 0
        magnitude = magnitude.view(np.uint64)
        np.negative(magnitude, out=magnitude, where=negative)
    top = int(magnitude.max())
    width = len(str(top)) + 1
    if top < 2**31:
        magnitude = magnitude.astype(np.int32)
    text = np.empty((column.size, width), dtype=np.uint8)
    length = negative + 1  # the sign byte, if any, and the first digit
    for j in range(width - 1, 0, -1):
        magnitude, text[:, j] = np.divmod(magnitude, 10)
        length += magnitude > 0
    text += ord("0")
    start = width - length
    signed = np.flatnonzero(negative)
    text[signed, start[signed]] = ord("-")
    # Row k of `kept` is 0 before column k and 1 from it; each row gathers one as a single item.
    kept = np.triu(np.ones((width, width), dtype=np.uint8))
    text *= kept.view(np.dtype((np.void, width)))[start].view(np.uint8)
    return text


def _float_text(column, cell):
    """Text of a float column as a function of a row range [lo, hi), in the form of _int_text.

    Each distinct bit pattern is formatted once with `cell`; the texts are
    left-aligned in one fixed-width byte table that the rows gather by their
    inverse index, so equal values (the +-1 weights, say) cost one call.
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([cell(x) for x in distinct.view(np.float64).tolist()], dtype="S")
    return lambda lo, hi: texts[inverse[lo:hi]].view(np.uint8).reshape(hi - lo, texts.itemsize)


def write_table(path, columns: list[str], values, output_format: str = "csv") -> None:
    """Write a numeric table, given as one 1-D integer or float array per column,
    as CSV (default) or as a columns/rows JSON object.

    The text equals fmt of every CSV cell, and json.dumps(..., indent=2) of
    the rows with integers verbatim and floats through round12.  Each chunk
    of _CHUNK_ROWS rows is assembled as one byte buffer and written at once:
    a (rows, width) matrix of the cells' texts between fixed separator bytes,
    of which the nonzero bytes are kept (the text is ASCII, so 0 is never a
    character).  Any other column dtype (bool, complex, object for integers
    beyond 64 bits) raises TypeError before the file is opened.
    """
    if output_format == "csv":
        cell, empty = fmt, ",".join(columns) + "\n"
        head, tail, cell_sep, row_open, row_close, row_sep = empty, "\n", ",", "", "", "\n"
    elif output_format == "json":
        cell, empty = _json_float, json.dumps({"columns": columns, "rows": []}, indent=2) + "\n"
        # The layout of json.dumps(indent=2): a row at 4 spaces, its cells at 6.
        head, tail = empty[: -len("[]\n}\n")] + "[\n", "\n  ]\n}\n"
        cell_sep, row_open, row_close, row_sep = ",\n      ", "    [\n      ", "\n    ]", ",\n"
    else:
        raise ValueError(f"unknown output format {output_format!r} (expected csv or json)")
    if len(values) != len(columns) or len({len(column) for column in values}) != 1:
        raise ValueError("a table needs one column of values per name, all of one length")
    values = [np.asarray(column) for column in values]
    for name, column in zip(columns, values):
        if column.dtype.kind not in "iuf":
            raise TypeError(f"column {name!r} has dtype {column.dtype}: only integer and float "
                            "columns are written")
    rows = len(values[0])
    if rows == 0:
        Path(path).write_bytes(empty.encode("ascii"))
        return
    # The fixed bytes before, between and after the cells of a row.
    seps = [np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
            for sep in [row_open] + [cell_sep] * (len(columns) - 1) + [row_close + row_sep]]
    cells = [partial(_int_text, column) if column.dtype.kind in "iu" else _float_text(column, cell)
             for column in values]
    with Path(path).open("wb") as handle:
        handle.write(head.encode("ascii"))
        for lo in range(0, rows, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, rows)
            parts = [np.broadcast_to(seps[0], (hi - lo, seps[0].size))]
            for column, sep in zip(cells, seps[1:]):
                parts += [column(lo, hi), np.broadcast_to(sep, (hi - lo, sep.size))]
            text = np.concatenate(parts, axis=1)
            if hi == rows:
                text[-1, text.shape[1] - len(row_sep):] = 0
            handle.write(text[text != 0])
        handle.write(tail.encode("ascii"))


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="ascii")
