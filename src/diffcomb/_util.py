"""Shared output helpers: 12-significant-digit numbers, CSV/JSON tables.

fmt, round12 and _json_float are the scalar rules for one cell.  write_table
writes whole columns with the same bytes: integers by digit passes, floats
from 12 digits computed for all of a column's distinct values at once, with
the scalar rule kept for the values that arithmetic does not settle.
"""

from __future__ import annotations

import json
from functools import cache, partial
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


# Magnitudes the digit arithmetic handles: 10**k stays finite and normal, and
# round12 of the value is a normal float.
_TINY, _HUGE = 1e-280, 1e280
_POWER_RANGE = 300


@cache
def _tables():
    """The float formatter's lookup tables, built on first use: 10**k, correctly
    rounded, for |k| <= _POWER_RANGE at k + _POWER_RANGE; the four ASCII digits
    of each of 0..9999 as one uint32 (two digit pairs side by side); and the
    three digits of each exponent below 1000 in three rows, with the hundreds'
    zero left 0 below 100."""
    powers = np.array([float(f"1e{k}") for k in range(-_POWER_RANGE, _POWER_RANGE + 1)])
    pairs = (np.arange(100)[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8)
    quads = np.concatenate(np.broadcast_arrays(pairs[:, None], pairs), axis=2)
    quads = quads.view(np.uint32).ravel()
    exponents = (np.arange(1000) // np.array([[100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
    exponents[0, :100] = 0
    return powers, quads, exponents


def _twelve_digits(a):
    """For magnitudes a in [_TINY, _HUGE): D in [10**11, 10**12) and the exponent e with
    D * 10**(e - 11) = a rounded half-even to 12 significant digits (D as an integral
    float64, e as int16), and a mask of the values whose rounding is left undecided.

    y = a * 10**(11 - e) lies in [10**11, 10**12] and carries at most two roundings,
    so it is within (2u + u**2) y < 2**-52 * 1.0001e12 < 2**-12 of the true value
    (u = 2**-53): a y farther than 2**-12 from floor(y) + 0.5 rounds as the true
    value does.  The values nearer to it, exact ties among them, are undecided.
    """
    powers = _tables()[0]
    e = np.floor(np.log10(a)).astype(np.int64)  # may be one off next to a power of ten
    y = a * powers[_POWER_RANGE + 11 - e]
    e += (y >= 1e12).astype(np.int64) - (y < 1e11)
    y = a * powers[_POWER_RANGE + 11 - e]
    digits = np.floor(y)
    gap = y - (digits + 0.5)  # exact (Sterbenz)
    digits += gap > 0
    carry = digits == 1e12
    digits[carry] = 1e11
    return digits, (e + carry).astype(np.int16), np.abs(gap) <= 2.0**-12


def _float_layout(negative, digits, e, json_style: bool):
    """Text of the values (-1)**negative * D * 10**(e - 11), in the layout of format(x, ".12g")
    (CSV) or of repr (JSON), as a (values, width) byte matrix whose unused bytes are 0.

    Every value has the same slots: sign, "0." and up to three zeros before a
    fraction below 1, then the digits, each followed by a point slot (digits past
    the 12 of D are padding zeros), then "e", sign and up to three exponent
    digits.  A slot holds its character or 0.  Each slot is built as one byte
    array over the values, and the slots that no value uses are left out.
    """
    _, quads, exponents = _tables()
    fixed = (e >= -4) & (e < (16 if json_style else 12))
    # D as three groups of four digits; the divisions are exact or far from an integer.
    high = np.floor(digits / 1e8)
    middle = np.floor((digits - high * 1e8) / 1e4)
    low = digits - high * 1e8 - middle * 1e4
    # Row j holds digit j of D, most significant first.
    column = np.take(quads, np.stack([high, middle, low]).astype(np.intp)).view(np.uint8)
    column = np.ascontiguousarray(column.reshape(3, -1, 4).transpose(0, 2, 1)).reshape(12, -1)
    significant = np.full(e.size, 12, dtype=np.int8)  # D without its trailing zeros
    trailing = np.ones(e.size, dtype=bool)
    for j in range(11, 0, -1):
        trailing &= column[j] == ord("0")
        significant -= trailing
    # Digits written: the significant ones, the integer part, and ".0" in JSON.
    shown = np.where(fixed, np.maximum(significant, e + 1 + json_style), significant)
    shown = shown.astype(np.int8)
    point = np.where(fixed, e, 0).astype(np.int8)  # the digit the point follows, if any
    point[shown <= point + 1] = -1

    def char(c):
        return np.uint8(ord(c))

    slots = [negative * char("-")]
    lead = fixed & (e < 0)
    if lead.any():
        slots += [lead * char("0"), lead * char(".")]
        slots += [(lead & (e < -1 - i)) * char("0") for i in range(3)]
    for j in range(int(shown.max())):
        slots += [(shown > j) * (column[j] if j < 12 else char("0")), (point == j) * char(".")]
    sci = ~fixed
    if sci.any():
        power = np.abs(e).astype(np.intp)
        slots += [sci * char("e"), sci * (char("+") + (e < 0) * np.uint8(2))]
        slots += [sci * np.take(exponents[i], power) for i in range(3)]
    return np.stack([slot for slot in slots if slot.any()], axis=1)


def _float_text(column, json_style: bool):
    """Text of a float column as a function of a row range [lo, hi), in the form of _int_text.

    Each distinct bit pattern is formatted once, and the rows gather their texts
    by the inverse index, so equal values (the +-1 weights, say) cost one
    format.  The distinct values are formatted together, every finite one in
    [_TINY, _HUGE) from its 12 digits (_twelve_digits, _float_layout).  Only
    the rest goes through the scalar rule, fmt (CSV) or _json_float (JSON):
    0, NaN, +-inf, extreme magnitudes, undecided roundings and, in CSV, the
    integral values in [1e12, 1e15), which fmt writes whole (below 1e12 the
    two texts agree).
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    x = distinct.view(np.float64)
    magnitude = np.abs(x)
    rows = np.flatnonzero((magnitude >= _TINY) & (magnitude < _HUGE))
    if not json_style:
        a = magnitude[rows]
        rows = rows[(a < 1e12) | (a >= 1e15) | (np.floor(a) != a)]
    digits, e, undecided = _twelve_digits(magnitude[rows])
    rows, settled = rows[~undecided], ~undecided
    scalar = np.ones(x.size, dtype=bool)
    scalar[rows] = False
    scalar = np.flatnonzero(scalar)
    parts = []
    if rows.size:
        parts.append((rows, _float_layout(x[rows] < 0, digits[settled], e[settled], json_style)))
    if scalar.size:
        cell = _json_float if json_style else fmt
        texts = np.array([cell(value) for value in x[scalar].tolist()], dtype="S")
        parts.append((scalar, texts.view(np.uint8).reshape(scalar.size, -1)))
    width = max(part.shape[1] for _, part in parts)
    row = np.dtype((np.void, width))
    table = np.zeros(x.size, dtype=row)
    for rows, part in parts:
        padded = np.zeros((rows.size, width), dtype=np.uint8)
        padded[:, : part.shape[1]] = part
        table[rows] = padded.view(row)[:, 0]
    return lambda lo, hi: table[inverse[lo:hi]].view(np.uint8).reshape(hi - lo, width)


def write_table(path, columns: list[str], values, output_format: str = "csv") -> None:
    """Write a numeric table, given as one 1-D integer or float array per column,
    as CSV (default) or as a columns/rows JSON object.

    The text equals fmt of every CSV cell, and json.dumps(..., indent=2) of
    the rows with integers verbatim and floats through round12.  Each chunk
    of _CHUNK_ROWS rows is assembled as one byte buffer and written at once:
    a (rows, width) matrix of the cells' texts between fixed separator bytes,
    of which the nonzero bytes are kept (the text is ASCII, so 0 is never a
    character, and a cell may leave 0 bytes anywhere in its slots).  Any other
    column dtype (bool, complex, object for integers beyond 64 bits) raises
    TypeError before the file is opened.
    """
    if output_format == "csv":
        empty = ",".join(columns) + "\n"
        head, tail, cell_sep, row_open, row_close, row_sep = empty, "\n", ",", "", "", "\n"
    elif output_format == "json":
        empty = json.dumps({"columns": columns, "rows": []}, indent=2) + "\n"
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
    cells = [partial(_int_text, column) if column.dtype.kind in "iu"
             else _float_text(column, output_format == "json") for column in values]
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
