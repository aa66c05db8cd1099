"""The shared CSV layer: the m,value format that `ingest` reads comes back
exactly, floats are written bit for bit, and faults are reported with their
line."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke import cli
from gl3hecke.csvio import IngestError, read_csv, write_csv

finite = st.floats(allow_nan=False, allow_infinity=False)
round_trip = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("csv") / "data.csv")


@round_trip
@given(st.dictionaries(st.integers(1, 300), finite, max_size=30))
def test_seq_round_trip(path, values):
    write_csv(path, ("m", "value"), values.items())
    seq = cli.ingest(path)
    assert seq.values.tolist() == [values.get(m, 0.0) for m in range(1, max(values, default=0) + 1)]


def test_blank_rows_are_skipped(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("m,value\n\n1,2.0\n\n3,-1.5\n")
    assert read_csv(str(path), ("m", "value"), "index", lambda r: (int(r[0]), r[1])) == {
        1: "2.0", 3: "-1.5"}


def test_field_count_is_checked(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("m,value\n1,2.0\n2\n")
    with pytest.raises(IngestError, match=":3: expected 2 fields"):
        cli.ingest(str(path))


def test_row_parser_error_names_its_line(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("m,value\n1,1.0\n2,0.5\n0,0.1\n")
    with pytest.raises(IngestError, match=r"seq\.csv:4: index m = 0 outside \[1, 10\^6\]$"):
        cli.ingest(str(path))


def test_numpy_floats_are_written_exactly(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("a", "b"), [(1, np.float64(0.1)), (2, 1 / 3)])
    assert path.read_bytes() == b"a,b\r\n1,0.1\r\n2,0.3333333333333333\r\n"
