"""Shared output helpers: 12-significant-digit numbers, CSV/JSON tables."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Rows formatted and written per block: memory does not grow with the table's text.
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


def _column_cells(column, cell):
    """Cell text of one column as a function of a row range [lo, hi).

    Integers are written by str.  A float column formats each distinct bit
    pattern once with `cell` and gathers the texts, so equal values (the +-1
    weights, say) cost one call.
    """
    column = np.asarray(column)
    if column.dtype.kind == "b":
        raise TypeError("bool is not a numeric cell")
    if column.dtype.kind in "iu":
        return lambda lo, hi: map(str, column[lo:hi].tolist())
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([cell(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return lambda lo, hi: texts[inverse[lo:hi]].tolist()


def write_table(path, columns: list[str], values, output_format: str = "csv") -> None:
    """Write a numeric table, given as one 1-D array per column, as CSV (default)
    or as a columns/rows JSON object.

    The text equals fmt of every CSV cell, and json.dumps(..., indent=2) of
    the rows with integers verbatim and floats through round12.  Rows are
    formatted and written _CHUNK_ROWS at a time.
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
    rows = len(values[0])
    cells = [_column_cells(column, cell) for column in values]
    with Path(path).open("w", encoding="ascii") as handle:
        if rows == 0:
            handle.write(empty)
            return
        handle.write(head)
        for lo in range(0, rows, _CHUNK_ROWS):
            texts = zip(*(column(lo, lo + _CHUNK_ROWS) for column in cells))
            handle.write((row_sep if lo else "") + row_open)
            handle.write((row_close + row_sep + row_open).join(map(cell_sep.join, texts)))
            handle.write(row_close)
        handle.write(tail)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="ascii")
