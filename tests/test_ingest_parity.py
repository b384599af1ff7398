"""The streamed, column-chunked ``ingest_csv`` against a row-at-a-time
oracle: identical arrays, ids and dtypes, or identical errors."""

from __future__ import annotations

import csv
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survent import data
from survent.data import (
    ColumnConfig,
    ConfigError,
    Dataset,
    MissingValueError,
    ParseError,
    ingest_csv,
)


def row_ingest(path, config: ColumnConfig) -> Dataset:
    """Reference reader: every row held as strings, then parsed cell by
    cell in row-major order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: no header row") from None
        rows = list(reader)
    colidx = {name: i for i, name in enumerate(header)}
    wanted = [config.time, config.status, *config.features]
    if config.id is not None:
        wanted.append(config.id)
    for name in wanted:
        if name not in colidx:
            raise ConfigError(f"column {name!r} not found in {path}")
    missing_rows = []
    for r, row in enumerate(rows, start=1):
        for name in wanted:
            i = colidx[name]
            if i >= len(row) or row[i].strip() == "":
                missing_rows.append(r)
                break
    if missing_rows:
        raise MissingValueError(missing_rows)
    n = len(rows)
    y = np.empty(n)
    delta = np.empty(n, dtype=np.int8)
    X = np.empty((n, len(config.features)))
    ids = []
    for r, row in enumerate(rows, start=1):
        y[r - 1] = data._parse_cell(row[colidx[config.time]], config.time, r)
        sval = data._parse_cell(row[colidx[config.status]], config.status, r)
        if sval not in (0.0, 1.0):
            raise ParseError(
                f"status must be 0 or 1, got {sval!r} at data row {r}", row=r)
        delta[r - 1] = int(sval)
        for j, fname in enumerate(config.features):
            X[r - 1, j] = data._parse_cell(row[colidx[fname]], fname, r)
        ids.append(row[colidx[config.id]] if config.id is not None else str(r - 1))
    kinds = None
    if config.kinds:
        kinds = [config.kinds.get(f, "continuous") for f in config.features]
    return Dataset(y=y, delta=delta, X=X, feature_names=config.features,
                   ids=ids, feature_kinds=kinds, meta={"source": str(path)})


def outcome(reader, path, config):
    try:
        return reader(path, config)
    except (ValueError, OSError) as exc:
        return exc


def assert_same(path, config: ColumnConfig) -> None:
    want = outcome(row_ingest, path, config)
    got = outcome(ingest_csv, path, config)
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        assert getattr(got, "row", None) == getattr(want, "row", None)
        assert getattr(got, "rows", None) == getattr(want, "rows", None)
        return
    assert isinstance(got, Dataset), got
    for name in ("y", "delta", "X"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous, name
        assert a.tobytes() == b.tobytes(), name
    assert got.ids == want.ids
    assert got.feature_names == want.feature_names
    assert got.feature_kinds == want.feature_kinds
    assert got.meta == want.meta


HEADER = ["id", "t", "s", "a", "extra", "b"]
CONFIGS = [
    ColumnConfig(time="t", status="s", features=("a", "b"), id="id"),
    ColumnConfig(time="t", status="s", features=("b",)),
    ColumnConfig(time="t", status="s", features=("b", "a"), id="id",
                 kinds={"a": "categorical"}),
]
GOOD = ["1.5", " 2 ", "-3e2", "+0.5", "1_0", "4E-1", "0", "7", "\t8\t",
        "1e308"]
SPECIAL = ["nan", "inf", "-inf", "-0", "Infinity", " NaN "]
BAD = ["x", "1e", "--1", "1__0", "1,5", '2"', "0x10", "1 0"]
BLANK = ["", " ", "\t"]
STATUS = ["0", "1", " 1 ", "1.0", "-0", "+1", "1e0", "0.0"]
BAD_STATUS = ["2", "0.5", "-1", "nan", "inf", "yes"]
IDS = ["s0", " s1 ", "s\x00", "\x00", 'q"uote', "com,ma", "new\nline", ""]

edits = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(HEADER),
              st.sampled_from(GOOD + SPECIAL + BAD + BLANK + STATUS
                              + BAD_STATUS + IDS)),
    max_size=4)


def write_file(path: Path, n: int, seed: int, edit_list, cut: list[int],
               quoting: int) -> None:
    rng = np.random.default_rng(seed)
    rows = [[f"s{i}", repr(float(rng.exponential())), str(int(rng.integers(2))),
             repr(float(rng.normal())), "?", repr(float(rng.uniform()))]
            for i in range(n)]
    for r, column, text in edit_list:
        if n:
            rows[r % n][HEADER.index(column)] = text
    for r in cut:  # ragged rows: drop trailing cells
        row = rows[r % n] if n else None
        if row:
            del row[(r // n) % len(row):]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting)
        writer.writerow(HEADER)
        writer.writerows(rows)


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(0, 12), st.integers(500, 1300)),
       seed=st.integers(0, 2**16), edit_list=edits,
       cut=st.lists(st.integers(0, 10**6), max_size=2),
       quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
       config=st.sampled_from(CONFIGS),
       chunk=st.sampled_from([1, 3, data._CHUNK_ROWS]))
@example(n=1000, seed=1, edit_list=[(900, "a", "")], cut=[], quoting=0,
         config=CONFIGS[0], chunk=data._CHUNK_ROWS)
@example(n=1000, seed=2, edit_list=[(10, "b", "x"), (700, "t", " ")], cut=[],
         quoting=0, config=CONFIGS[0], chunk=data._CHUNK_ROWS)
@example(n=1000, seed=3, edit_list=[(600, "s", "2"), (600, "t", "x"),
                                    (800, "a", "y")], cut=[], quoting=1,
         config=CONFIGS[0], chunk=data._CHUNK_ROWS)
@example(n=700, seed=4, edit_list=[], cut=[1300], quoting=0,
         config=CONFIGS[1], chunk=data._CHUNK_ROWS)
@example(n=600, seed=5, edit_list=[(300, "id", "s\x00"), (2, "id", " s1 ")],
         cut=[], quoting=0, config=CONFIGS[0], chunk=data._CHUNK_ROWS)
def test_streamed_ingest_matches_row_oracle(tmp_path_factory, n, seed,
                                           edit_list, cut, quoting, config,
                                           chunk):
    path = tmp_path_factory.mktemp("parity") / "data.csv"
    write_file(path, n, seed, edit_list, cut, quoting)
    with mock.patch.object(data, "_CHUNK_ROWS", chunk):
        assert_same(path, config)


@pytest.mark.parametrize("text", [
    "",                                    # empty file: no header
    "id,t,s,a,extra,b\n",                  # header only
    "id,t,s,a,extra,b\r\n\r\n",            # header and a blank row
    "id,t,s,a\n0,1,1,2\n",                 # a configured column is absent
    'id,t,s,a,extra,b\n"x",1,1,2,?,"3"\n',
])
def test_edge_files_match_row_oracle(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for config in CONFIGS:
        assert_same(path, config)


def test_missing_cell_after_earlier_parse_error_wins(tmp_path):
    n = 4 * data._CHUNK_ROWS
    write_file(tmp_path / "d.csv", n, 0,
               [(5, "a", "oops"), (n - 3, "b", "")], [], csv.QUOTE_MINIMAL)
    with pytest.raises(MissingValueError) as err:
        ingest_csv(tmp_path / "d.csv", CONFIGS[0])
    assert err.value.rows == [n - 2]
