"""Ingestion, config handling, and dataset invariants."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survent import (
    ColumnConfig,
    ConfigError,
    Dataset,
    MissingValueError,
    ParseError,
    ingest_csv,
)
from survent.redistribution import _prepared


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("id,y,delta,v1\na,1.5,1,0.2\nb,2.0,0,0.4\nc,0.5,1,0.9\n")
    return path


CONFIG = {"time": "y", "status": "delta", "features": ["v1"], "id": "id"}


def test_ingest_basic(tiny_csv):
    ds = ingest_csv(tiny_csv, CONFIG)
    assert ds.n == 3 and ds.n_u == 2 and ds.n_c == 1
    assert ds.ids == ("a", "b", "c")
    assert ds.feature_names == ("v1",)
    np.testing.assert_allclose(ds.y, [1.5, 2.0, 0.5])


def test_ingest_missing_column(tiny_csv):
    with pytest.raises(ConfigError, match="status2"):
        ingest_csv(tiny_csv, {**CONFIG, "status": "status2"})


def test_ingest_non_numeric_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,delta\n1.0,1\noops,0\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path, {"time": "y", "status": "delta", "features": []})
    assert err.value.row == 2


def test_ingest_missing_values_lists_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("y,delta,v\n1.0,1,2\n2.0,,3\n3.0,1,\n")
    with pytest.raises(MissingValueError) as err:
        ingest_csv(path, {"time": "y", "status": "delta", "features": ["v"]})
    assert err.value.rows == [2, 3]


def test_ingest_bad_status_value(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("y,delta\n1.0,2\n")
    with pytest.raises(ParseError):
        ingest_csv(path, {"time": "y", "status": "delta", "features": []})


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("column", ["y", "v1"])
def test_ingest_rejects_non_finite_cell(tmp_path, cell, column):
    path = tmp_path / "nonfinite.csv"
    row = {"y": "2.0", "v1": "0.4", column: cell}
    path.write_text(f"id,y,delta,v1\na,1.5,1,0.2\nb,{row['y']},0,{row['v1']}\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        ingest_csv(path, CONFIG)
    assert err.value.row == 2


def test_ingest_rejects_repeated_selected_column(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("id,y,delta,v1,v1\na,1.5,1,0.2,0.7\nb,2.0,0,0.4,0.1\n")
    with pytest.raises(ConfigError, match="'v1' appears more than once"):
        ingest_csv(path, CONFIG)
    path.write_text("id,y,delta,v1,x,x\na,1.5,1,0.2,5,6\nb,2.0,0,0.4,7,8\n")
    assert ingest_csv(path, CONFIG).feature("v1").tolist() == [0.2, 0.4]


def test_config_from_json_file(tmp_path, tiny_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "bins": {"v1": [0, 0.5, 1.0]}}))
    ds = ingest_csv(tiny_csv, cfg)
    assert ds.n == 3
    parsed = ColumnConfig.from_json(cfg)
    assert parsed.bins["v1"] == [0.0, 0.5, 1.0]
    assert parsed.to_dict()["features"] == ["v1"]


def test_config_rejects_unknown_version():
    with pytest.raises(ConfigError):
        ColumnConfig.from_dict({**CONFIG, "version": 99})


def test_roundtrip_reingest_identical(tmp_path, tiny_csv):
    ds = ingest_csv(tiny_csv, CONFIG)
    out = tmp_path / "echo.csv"
    ds.to_csv(out)
    again = ingest_csv(out, {"time": "time", "status": "status",
                             "features": ["v1"], "id": "id"})
    np.testing.assert_array_equal(ds.y, again.y)
    np.testing.assert_array_equal(ds.delta, again.delta)
    np.testing.assert_array_equal(ds.X, again.X)
    assert ds.ids == again.ids


def test_to_csv_matches_row_writer(tmp_path):
    """The column-wise writer's bytes are those of one ``writerow`` per
    record with shortest-repr floats."""
    import csv

    from survent import SimConfig, generate

    ds = generate(SimConfig(n=500, censor_target=0.3, seed=3))
    ds.to_csv(tmp_path / "cols.csv")
    with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "status", *ds.feature_names])
        for i in range(ds.n):
            writer.writerow([ds.ids[i], repr(float(ds.y[i])), int(ds.delta[i]),
                             *(repr(float(v)) for v in ds.X[i])])
    assert ((tmp_path / "cols.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(y=[1.0, -2.0], delta=[1, 0])
    with pytest.raises(ValueError):
        Dataset(y=[1.0, np.inf], delta=[1, 0])
    with pytest.raises(ValueError):
        Dataset(y=[1.0], delta=[2])
    with pytest.raises(ValueError, match="covariates must be finite"):
        Dataset(y=[1.0, 2.0], delta=[1, 0], X=[[1.0], [np.nan]])
    with pytest.raises(ValueError):
        Dataset(y=[1.0, 2.0], delta=[1, 0], X=[[1.0], [2.0]],
                feature_names=["a", "a"])
    with pytest.raises(ValueError, match="unique"):
        Dataset(y=[1.0, 2.0], delta=[1, 0], ids=["x", "x"])


def test_counts_identity():
    ds = Dataset(y=[1, 2, 3, 4], delta=[1, 0, 0, 1])
    assert ds.n == ds.n_u + ds.n_c == 4
    assert ds.n_u == int(ds.delta.sum())


def _promote_by_resorting(y: np.ndarray, delta: np.ndarray) -> list[int]:
    """Oracle: re-sort and promote the trailing record while it is censored."""
    delta = np.array(delta)
    while True:
        last = int(np.lexsort((np.arange(y.size), 1 - delta, y))[-1])
        if delta[last] == 1:
            return delta.tolist()
        delta[last] = 1


@st.composite
def few_times(draw):
    """Few distinct times, so the largest one is shared by many records of
    both kinds; large n keeps the oracle's censored block long."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 40), st.integers(1000, 3000)))
    y = rng.integers(0, draw(st.integers(1, 8)), n).astype(float)
    return y, (rng.uniform(size=n) >= draw(st.floats(0.0, 1.0))).astype(int)


def _promoted_delta(y, delta) -> list[int]:
    order, _, deltas, _ = _prepared(np.asarray(y, dtype=float),
                                    np.asarray(delta))
    promoted = np.empty_like(deltas)
    promoted[order] = deltas
    return promoted.tolist()


def test_promotion_with_tied_max():
    # event and censoring tied at the max: the censoring sorts last
    assert _promoted_delta([1.0, 2.0, 2.0], [1, 1, 0]) == [1, 1, 1]


def test_promotion_cascades_through_tied_censored_block():
    # two censored records tied at the max: promoting one re-sorts it ahead
    # of the other, which must then be promoted too
    delta = np.array([1, 0, 0])
    assert _promoted_delta([1.0, 5.0, 5.0], delta) == [1, 1, 1]
    assert delta.tolist() == [1, 0, 0]  # the caller's status is kept


@settings(max_examples=150, deadline=None)
@given(sample=few_times())
def test_promotion_matches_repeated_resort(sample):
    y, delta = sample
    observed = delta.copy()
    assert _promoted_delta(y, delta) == _promote_by_resorting(y, observed)
    assert np.array_equal(delta, observed)  # the caller's status is kept
