"""Table writer: byte-identical to formatting every cell on its own."""

import json
import math
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffcomb as dc
from diffcomb import _util
from diffcomb._util import fmt, json_form, round12, write_json, write_table

FORMATS = ("csv", "json")

EDGES = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 2.0**53,
         999999999999.0, 1e12, 1e15 - 1, 1e15, 123456789012345.0, 0.1, 1 / 3,
         # Layout boundaries, a rounding carry into the next power of ten, exact
         # 12th-digit ties on the dyadic grid (one rounds up, one down) and
         # elsewhere, all left to the scalar rule, and the guard magnitudes.
         1e-4, 1e-5, 9.99999999999995e-05, 999999999999.5, 1e16, 7 / 65536, 9 / 65536,
         1.234567890125e-20, 1e-280, 1e280, 2.2250738585072014e-308]

# -2**63 has no int64 magnitude, the powers of ten change the digit count,
# and 2**31 is the first magnitude past int32.
INT_EDGES = [-(2**63), 2**63 - 1, 0, 2**31 - 1, 2**31, -(2**31)] + [
    sign * (10**k - less) for k in range(1, 19) for sign in (1, -1) for less in (1, 0)
]

INTS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT_EDGES))
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.integers(-(2**63), 2**63 - 1).map(lambda bits: float(np.int64(bits).view(np.float64))),
)


def oracle(columns, values, output_format) -> str:
    """The cell-by-cell writer: fmt per CSV cell, json.dumps of int/round12 rows."""
    rows = list(zip(*(np.asarray(column).tolist() for column in values)))
    if output_format == "csv":
        lines = [",".join(columns)] + [",".join(fmt(cell) for cell in row) for row in rows]
        return "\n".join(lines) + "\n"
    cells = [[cell if isinstance(cell, int) else round12(cell) for cell in row] for row in rows]
    return json.dumps({"columns": columns, "rows": cells}, indent=2) + "\n"


@contextmanager
def bounds(chunk=None, scalar_distinct=0):
    """_CHUNK_ROWS set to `chunk` when given, and _SCALAR_DISTINCT to `scalar_distinct`
    (by default 0: every float column takes the vectorised formatter), inside the block."""
    saved = _util._CHUNK_ROWS, _util._SCALAR_DISTINCT
    _util._CHUNK_ROWS, _util._SCALAR_DISTINCT = chunk or saved[0], scalar_distinct
    try:
        yield
    finally:
        _util._CHUNK_ROWS, _util._SCALAR_DISTINCT = saved


def written(columns, values, output_format, chunk=None, scalar_distinct=0) -> str:
    """The writer's text, inside bounds(chunk, scalar_distinct)."""
    with bounds(chunk, scalar_distinct), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        write_table(path, columns, values, output_format)
        return path.read_text(encoding="ascii")


@pytest.mark.parametrize("output_format", FORMATS)
@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(INTS, FLOATS), max_size=40), chunk=st.integers(1, 8))
def test_matches_oracle_on_arbitrary_bits(output_format, rows, chunk):
    ints = np.array([n for n, _ in rows], dtype=np.int64)
    floats = np.array([x for _, x in rows], dtype=np.float64)
    columns = ["n", "x"]
    text = written(columns, [ints, floats], output_format, chunk)
    assert text == oracle(columns, [ints, floats], output_format)


@pytest.mark.parametrize("output_format", FORMATS)
@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    kinds=st.text(alphabet="if", min_size=1, max_size=3),
    chunk=st.integers(1, 8),
    chunks=st.integers(0, 3),
    offset=st.integers(-1, 1),
)
def test_column_shapes_match_oracle(output_format, data, kinds, chunk, chunks, offset):
    """One to three int or float columns, in any mix, at row counts around the chunk."""
    rows = max(0, chunks * chunk + offset)
    values = [
        np.array(data.draw(st.lists(INTS if kind == "i" else FLOATS, min_size=rows, max_size=rows)),
                 dtype=np.int64 if kind == "i" else np.float64)
        for kind in kinds
    ]
    columns = [f"c{i}" for i in range(len(kinds))]
    assert written(columns, values, output_format, chunk) == oracle(columns, values, output_format)


@pytest.mark.parametrize("output_format", FORMATS)
def test_integer_edges(output_format):
    """Every digit count and both int64 extremes in one chunk, and uint64 past 2**63."""
    signed = np.array(INT_EDGES, dtype=np.int64)
    unsigned = np.array([0, 10**19, 2**64 - 1] * (signed.size // 3), dtype=np.uint64)
    columns = ["n", "u"]
    text = written(columns, [signed, unsigned], output_format)
    assert text == oracle(columns, [signed, unsigned], output_format)
    if output_format == "json":
        assert json.loads(text)["rows"][:3] == [[-(2**63), 0], [2**63 - 1, 10**19], [0, 2**64 - 1]]
        assert "\n    [\n      -9223372036854775808,\n      0\n    ],\n" in text


@pytest.mark.parametrize("output_format", FORMATS)
def test_edge_values(output_format):
    x = np.array(EDGES + [-x for x in EDGES])
    lags = np.arange(-x.size // 2, x.size - x.size // 2)
    values = [lags, x, x[::-1]]
    columns = ["m", "a", "b"]
    text = written(columns, values, output_format)
    assert text == oracle(columns, values, output_format)
    if output_format == "csv":
        assert ",0," in text and ",-0," not in text
        assert ",1000000000000000," not in text and "1e+15" in text


@pytest.mark.parametrize("output_format", FORMATS)
@pytest.mark.parametrize("rows", [0, 1, 3, 4, 5])
def test_row_counts_around_the_chunk(monkeypatch, output_format, rows):
    monkeypatch.setattr(_util, "_CHUNK_ROWS", 4)
    values = [np.arange(rows), np.linspace(-1.0, 1.0, rows)]
    text = written(["k", "y"], values, output_format)
    assert text == oracle(["k", "y"], values, output_format)


def test_empty_table_text():
    assert written(["n", "w"], [[], []], "csv") == "n,w\n"
    assert json.loads(written(["n", "w"], [[], []], "json")) == {"columns": ["n", "w"], "rows": []}


def test_bool_column_is_rejected(tmp_path):
    with pytest.raises(TypeError, match="bool"):
        write_table(tmp_path / "t.csv", ["n", "flag"], [np.arange(2), np.array([True, False])])


@pytest.mark.parametrize("column", [[2**64 + 1], np.array([1 + 2j])], ids=["object", "complex"])
def test_non_numeric_column_is_rejected_before_writing(tmp_path, column):
    """An int past 64 bits (an object column) and a complex column are not cast to float."""
    with pytest.raises(TypeError, match="only integer and float"):
        write_table(tmp_path / "t.csv", ["n", "x"], [np.arange(1), column])
    assert not any(tmp_path.iterdir())


def test_unknown_format_writes_nothing(tmp_path):
    with pytest.raises(ValueError, match="unknown output format"):
        write_table(tmp_path / "t.xml", ["n"], [np.arange(3)], "xml")
    assert not any(tmp_path.iterdir())


def test_columns_must_match_names(tmp_path):
    with pytest.raises(ValueError, match="one column"):
        write_table(tmp_path / "t.csv", ["n", "w"], [np.arange(3), np.ones(2)])
    with pytest.raises(ValueError, match="one column"):
        write_table(tmp_path / "t.csv", ["n", "w"], [np.arange(3)])
    assert not any(tmp_path.iterdir())


# Bit patterns that are easy to confuse: both zeros, NaNs with different payloads
# and signs, both infinities, and neighbouring floats.
FEW_EDGES = np.array(
    [0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
     0xFFF8000000000000, 0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
     0x3FF0000000000000, 0xBFF0000000000000, 0x3FF0000000000001, 0x0000000000000001],
    dtype=np.uint64).view(np.int64)
FEW_BITS = st.one_of(st.sampled_from(FEW_EDGES.tolist()), st.integers(-(2**63), 2**63 - 1))


def arranged(data, values, rows):
    """`rows` entries of the distinct `values`, each at least once, in random order."""
    count = len(values)
    picks = data.draw(st.lists(st.integers(0, count - 1), min_size=rows - count, max_size=rows - count))
    order = data.draw(st.permutations(list(range(count)) + picks))
    return values[order]


def few_valued(data, count, rows):
    """A column of exactly `count` distinct bit patterns, each at least once, in random order."""
    patterns = data.draw(st.lists(FEW_BITS, min_size=count, max_size=count, unique=True))
    return arranged(data, np.array(patterns, dtype=np.int64), rows)


def few_letters(data, count, rows):
    """A finite float window of exactly `count` distinct letters, each at least once, in
    random order: 0, whose rows take both signs, then two negative letters, then any."""
    nonzero = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
    others = data.draw(st.lists(nonzero, min_size=count - 1, max_size=count - 1, unique_by=abs))
    letters = [0.0] + [-abs(x) for x in others[:2]] + others[2:]
    window = arranged(data, np.array(letters), rows)
    signs = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    window[(window == 0) & np.array(signs)] = -0.0
    return window


@settings(max_examples=200, deadline=None)
@given(data=st.data(), count=st.integers(1, 6), extra=st.integers(0, 30))
def test_distinct_equals_unique(data, count, extra):
    """On the writer's bit patterns and on a float window, compared as floats: letters in
    numeric order, negative ones included, and -0.0 one letter with 0.0."""
    for values in (few_valued(data, count, count + extra), few_letters(data, count, count + extra)):
        distinct, inverse = _util._distinct(values)
        expected, expected_inverse = np.unique(values, return_inverse=True)
        assert distinct.dtype == expected.dtype and inverse.dtype == expected_inverse.dtype
        assert np.array_equal(distinct, expected) and np.array_equal(inverse, expected_inverse)


@pytest.mark.parametrize("count", [_util._FEW_DISTINCT, _util._FEW_DISTINCT + 1])
def test_distinct_sorts_only_past_a_few_values(monkeypatch, count):
    """Up to _FEW_DISTINCT values are found without np.unique; one more falls back to it."""
    bits = np.repeat(FEW_EDGES[:count], 3)[::-1].copy()
    expected = np.unique(bits, return_inverse=True)
    sorts = []
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: sorts.append(1) or expected)
    _util._distinct(bits)
    assert len(sorts) == (count > _util._FEW_DISTINCT)


@pytest.mark.parametrize("output_format", FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), count=st.integers(1, 6), extra=st.integers(0, 30), chunk=st.integers(1, 8))
def test_few_valued_column_over_chunks_matches_oracle(output_format, data, count, extra, chunk):
    """A few-valued float column beside its index, written over several chunks."""
    x = few_valued(data, count, count + extra).view(np.float64)
    index = np.arange(-(x.size // 2), x.size - x.size // 2)
    values = [index, x]
    assert written(["n", "w"], values, output_format, chunk) == oracle(["n", "w"], values, output_format)


@pytest.mark.parametrize("output_format", FORMATS)
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_bytes_agree_on_both_sides_of_the_scalar_bound(output_format, extra):
    """A column of _SCALAR_DISTINCT + extra distinct values, -0.0, 1e-300 and 1e300
    among them, has the oracle's bytes with the writer's own bound and with every
    value taken by the vectorised formatter or by the scalar rule."""
    count = _util._SCALAR_DISTINCT + extra
    x = np.concatenate([[-0.0, 1e-300, 1e300], np.random.default_rng(count).normal(size=count - 3)])
    x = np.concatenate([x, x[::-1]])
    values = [np.arange(x.size), x]
    expected = oracle(["n", "x"], values, output_format)
    for bound in (_util._SCALAR_DISTINCT, 0, x.size):
        assert written(["n", "x"], values, output_format, scalar_distinct=bound) == expected, bound


def cell_texts(x, output_format):
    """The writer's text of each value of a float column, through its vectorised formatter."""
    with bounds():
        rows = _util._float_text(np.asarray(x, dtype=np.float64), output_format == "json")(0, len(x))
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


def neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf), -x])


def ties(count, exponents, seed):
    """13-digit decimals DDDDDDDDDDDD5 * 10**e, half-way between two 12-digit ones, as floats."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(10**11, 10**12, count).tolist()
    return [float(f"{d}5e{e}") for d, e in zip(digits, rng.choice(exponents, count).tolist())]


FORMATTER_EDGES = {
    # The floats nearest 12th-digit half-way points at exponents -45..59, and
    # their neighbours one ulp away: at and next to the margin of the float product.
    "half-way": neighbours(ties(3000, np.arange(-45, 60), 1)),
    "powers-of-ten": neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "layout-boundaries": neighbours(
        [1e-4, 1e-5, 9.99999999999995e-05, 9.999999999995e-06, 999999999999.5, 1e12 - 1,
         1e12, 1e15 - 1, 1e15, 1e15 + 2, 999999999999999.9, 1e16, 1e16 - 2, 1e16 + 2,
         9999999999999998.0]),
    "dyadic-grid": np.arange(65537) / 65536,
    "guard-magnitudes": neighbours([1e-280, 1e280, 1.5e-280, 9.9e279]),
    # Quiet and signalling NaNs with payloads, and the infinities: no RuntimeWarning may leak.
    "nans-and-infinities": np.array(
        [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF,
         0x7FF0000000000000, 0xFFF0000000000000], dtype=np.uint64).view(np.float64),
    "subnormals-and-zeros": np.concatenate(
        [[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308],
         np.random.default_rng(2).integers(1, 2**52, 200).view(np.float64)]),
}


@pytest.mark.parametrize("output_format", FORMATS)
@pytest.mark.parametrize("name", FORMATTER_EDGES)
def test_each_cell_matches_the_scalar_rule(output_format, name):
    """Every cell equals fmt (CSV) or _json_float (JSON) of its value, compared directly."""
    x = FORMATTER_EDGES[name]
    cell = fmt if output_format == "csv" else _util._json_float
    assert cell_texts(x, output_format) == [cell(value) for value in x.tolist()]


@pytest.mark.parametrize("output_format", FORMATS)
def test_only_guarded_values_take_the_scalar_rule(monkeypatch, output_format):
    """On the j/65536 grid the scalar rule gets 0 and the 4601 exact 12th-digit
    ties (13 significant digits, the last a 5), which the float product cannot
    settle, and no other value."""
    scalar = []
    for name in ("fmt", "_json_float"):
        rule = getattr(_util, name)
        monkeypatch.setattr(_util, name, lambda x, rule=rule: scalar.append(x) or rule(x))
    grid = FORMATTER_EDGES["dyadic-grid"]
    cell_texts(grid, output_format)
    ties = [x for x in grid.tolist() if x and Decimal(x).normalize().as_tuple().digits[12:] == (5,)]
    assert len(ties) == 4601
    assert scalar == [0.0] + ties


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_report_refuses_a_non_finite_value(tmp_path, value):
    """A report never carries the non-standard tokens NaN or Infinity."""
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"entries": [[1, 0.5], [2, value]]})
    assert not path.exists()


@dataclass
class _Report:
    """Fields deliberately out of alphabetical order, with nested floats."""

    zeta: float
    count: int
    passed: bool
    label: str
    missing: None
    pairs: tuple
    rows: list
    table: dict


def test_json_form_rounds_every_nested_float_and_keeps_the_rest():
    x = 0.1234567890123456
    report = _Report(x, 2**63 - 1, True, "1.2345678901234", None,
                     ((x, (1, x)), [x]), [[x, 3], [-x]], {"b": x, "a": [x, False]})
    r = round12(x)
    assert r != x
    data = json_form(report)
    assert data == {
        "zeta": r,
        "count": 2**63 - 1,
        "passed": True,
        "label": "1.2345678901234",
        "missing": None,
        "pairs": [[r, [1, r]], [r]],
        "rows": [[r, 3], [-r]],
        "table": {"b": r, "a": [r, False]},
    }
    assert list(data) == ["zeta", "count", "passed", "label", "missing", "pairs", "rows", "table"]
    assert list(data["table"]) == ["b", "a"]
    # Ints and bools keep their type: 2**63 - 1 is not rounded, True is not 1.0.
    assert type(data["count"]) is int and type(data["passed"]) is bool
    assert type(json_form(np.float64(x))) is float


def test_json_form_of_a_report_nests_dataclasses():
    inner = _Report(1.0, 1, False, "", None, (), [], {})
    assert json_form({"inner": inner, "x": 2.5}) == {"inner": json_form(inner), "x": 2.5}


@pytest.mark.parametrize("make,message", [
    (lambda: dc.Autocorrelation(2, [1.0] * 4), "eta must have length 2 * max_lag + 1"),
    (lambda: dc.Periodogram(4, np.ones((2, 2))), "intensities must have length grid_size"),
    (lambda: dc.BinnedMeasure(3, []), "masses must have length bins"),
    (lambda: dc.ProductAutocorrelation(1, np.ones(9)),
     "eta must be square with side 2 * max_lag + 1"),
], ids=["autocorrelation", "periodogram", "binned", "product"])
def test_result_tables_refuse_a_wrong_shape(make, message):
    """Each result table takes its values through float_array, with its own message."""
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
    assert _util.float_array([1, 2], (2,), "unused").dtype == np.float64
