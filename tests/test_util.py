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


def oracle(columns, values, output_format) -> str:
    """The cell-by-cell writer: fmt per CSV cell, json.dumps of int/round12 rows."""
    rows = list(zip(*(np.asarray(column).tolist() for column in values)))
    if output_format == "csv":
        lines = [",".join(columns)] + [",".join(fmt(cell) for cell in row) for row in rows]
        return "\n".join(lines) + "\n"
    cells = [[cell if isinstance(cell, int) else round12(cell) for cell in row] for row in rows]
    return json.dumps({"columns": columns, "rows": cells}, indent=2) + "\n"


def written(columns, values, output_format) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        write_table(path, columns, values, output_format)
        return path.read_text(encoding="ascii")


@pytest.mark.parametrize("output_format", FORMATS)
@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(-(2**63), 2**63 - 1),
            st.one_of(
                st.floats(),
                st.sampled_from(EDGES),
                st.integers(-(2**63), 2**63 - 1).map(
                    lambda bits: float(np.int64(bits).view(np.float64))
                ),
            ),
        ),
        max_size=40,
    ),
    chunk=st.integers(1, 8),
)
def test_matches_oracle_on_arbitrary_bits(output_format, rows, chunk):
    ints = np.array([n for n, _ in rows], dtype=np.int64)
    floats = np.array([x for _, x in rows], dtype=np.float64)
    columns = ["n", "x"]
    saved = _util._CHUNK_ROWS
    _util._CHUNK_ROWS = chunk
    try:
        text = written(columns, [ints, floats], output_format)
    finally:
        _util._CHUNK_ROWS = saved
    assert text == oracle(columns, [ints, floats], output_format)


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
