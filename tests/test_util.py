"""Table writer: byte-identical to formatting every cell on its own."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomb import _util
from diffcomb._util import fmt, round12, write_table

FORMATS = ("csv", "json")

EDGES = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 2.0**53,
         999999999999.0, 1e12, 1e15 - 1, 1e15, 123456789012345.0, 0.1, 1 / 3]

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


def written(columns, values, output_format, chunk=None) -> str:
    """The writer's text, with _CHUNK_ROWS set to `chunk` for the call when given."""
    saved = _util._CHUNK_ROWS
    _util._CHUNK_ROWS = chunk or saved
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table"
            write_table(path, columns, values, output_format)
            return path.read_text(encoding="ascii")
    finally:
        _util._CHUNK_ROWS = saved


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
