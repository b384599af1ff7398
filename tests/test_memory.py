"""Working-memory bounds of the streamed layers at n = 10^4, measured with
tracemalloc (numpy reports its buffers to it)."""

from __future__ import annotations

import tracemalloc
import warnings

import pytest

import numpy as np

from survent import (
    Dataset,
    SimConfig,
    binned_row_masses,
    categorize_features,
    equal_width_bins,
    generate,
    ingest_csv,
    mce_matrix,
    reliability_null,
    run_mfs,
    table_from_binned,
)

MiB = 2 ** 20


@pytest.fixture(scope="module")
def sample():
    return generate(SimConfig(n=10_000, censor_target=0.2, seed=0))


def traced_peak(fn, *args, **kwargs) -> float:
    """Peak bytes allocated while ``fn`` runs, above what was live before."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_csv_peak_is_linear_not_per_cell(sample, tmp_path):
    # one string per cell held at once would be about 11 MiB here
    path = tmp_path / "data.csv"
    sample.to_csv(path)
    config = {"time": "time", "status": "status", "id": "id",
              "features": list(sample.feature_names)}
    assert traced_peak(ingest_csv, path, config) < 5 * MiB


def test_run_mfs_peak_keeps_no_composite_tables(sample):
    # keeping every order <= 3 table with its labels was about 20 MiB here
    scheme = equal_width_bins(sample.y, 10)
    cats = categorize_features(sample, n_bins=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # order-3 size guard
        peak = traced_peak(run_mfs, sample, scheme, cats=cats, max_order=3)
    assert peak < 5 * MiB


def test_run_mfs_peak_holds_no_per_feature_codes(sample):
    # on given masses the screen peaks at about 0.6 MiB here; one int64
    # copy of each feature's codes alone would add 0.76 MiB
    scheme = equal_width_bins(sample.y, 10)
    masses, _ = binned_row_masses(sample.y, sample.delta, scheme)
    cats = categorize_features(sample, n_bins=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # order-3 size guard
        peak = traced_peak(run_mfs, sample, scheme, cats=cats, max_order=3,
                           masses=masses)
    assert peak < 1 * MiB


def test_table_from_binned_peak_has_no_cell_index(sample):
    # an n x k int64 cell index alone would be 0.76 MiB here
    scheme = equal_width_bins(sample.y, 10)
    masses, _ = binned_row_masses(sample.y, sample.delta, scheme)
    codes = categorize_features(sample, n_bins=10).column("V1")
    assert traced_peak(table_from_binned, masses, codes) < 0.5 * MiB


def test_reliability_null_peak_holds_one_replicate(sample):
    # one replicate's draws at a time plus the 200 x 10 x 10 cells; copying
    # the mass rows once per replicate of a block was 3.65 MiB here
    scheme = equal_width_bins(sample.y, 10)
    masses, _ = binned_row_masses(sample.y, sample.delta, scheme)
    peak = traced_peak(reliability_null, sample, scheme, n_rep=200,
                       n_bins=10, masses=masses)
    assert peak < 1 * MiB


def test_pair_terms_build_no_levels_squared_table():
    # two categorical features of n levels each at n = 3,000: a dense
    # levels_a x levels_b pair table peaked at 206 MiB in mce_matrix and
    # 147 MiB in run_mfs (do not try n = 10^4, which needed about 2.3 GB)
    n = 3_000
    rng = np.random.default_rng(0)
    ds = Dataset(y=rng.exponential(1.0, n), delta=np.ones(n, dtype=int),
                 X=np.column_stack([rng.permutation(n), rng.permutation(n)]),
                 feature_kinds=["categorical", "categorical"])
    scheme = equal_width_bins(ds.y, 10)
    masses, _ = binned_row_masses(ds.y, ds.delta, scheme)
    cats = categorize_features(ds)
    assert traced_peak(mce_matrix, cats) < 2 * MiB
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # size guard
        peak = traced_peak(run_mfs, ds, scheme, cats=cats, max_order=2,
                           masses=masses)
    assert peak < 2 * MiB
