"""Censoring-independence diagnostic: calibration, power, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from survent import (
    ContingencyTable,
    Dataset,
    equal_width_bins,
    run_censor_test,
)


def independent_dataset(seed: int, n: int = 1200) -> Dataset:
    rng = np.random.default_rng(seed)
    T = rng.exponential(1.0, n)
    C = rng.exponential(1.0, n)
    return Dataset(y=np.minimum(T, C), delta=(T <= C).astype(int))


def test_result_shapes_and_verdict():
    ds = independent_dataset(0)
    scheme = equal_width_bins(ds.y[ds.delta == 1], 4)
    res = run_censor_test(ds, scheme, n_sim=2000, seed=1)
    assert res.row_rescaled_ces.shape == (4,)
    assert res.col_rescaled_ces.shape == (4,)
    assert res.h_col_marginal > 0 and res.h_row_marginal > 0
    assert res.verdict in ("non-informative not rejected",
                           "non-informative rejected")
    for sample in res.rows.null_samples:
        assert sample is None or sample.shape == (2000,)


def test_independent_censoring_calibration():
    """Observed rescaled CEs sit inside the central mass of their nulls for
    the clear majority of independent-censoring draws."""
    inside = 0
    trials = 25
    checks = 0
    for seed in range(trials):
        ds = independent_dataset(seed, n=900)
        scheme = equal_width_bins(ds.y, 4)
        res = run_censor_test(ds, scheme, n_sim=400, seed=seed)
        for axis in (res.rows, res.cols):
            for i, null in enumerate(axis.null_samples):
                if null is None:
                    continue
                lo, hi = np.quantile(null, [0.025, 0.975])
                checks += 1
                inside += int(lo <= axis.rescaled[i] <= hi)
    assert inside / checks >= 0.9


def test_summed_table_is_product_form_without_ties():
    """Structural fact: on tie-free data the summed cross table equals the
    outer product of its marginals exactly, whatever the true dependence.

    Both halves impute the unobserved coordinate from the opposing
    product-limit estimate, and the survival-function duality
    (1-F)(1-G) = empirical minimum-survival collapses the sum to rank one.
    Departures from product form (and hence any detection power) can come
    only from ties, the trailing-point promotion, or binning effects."""
    rng = np.random.default_rng(7)
    n = 800
    T = rng.exponential(1.0, n)
    for C in (0.9 * T + rng.uniform(0, 0.02, n),      # strongly dependent
              rng.exponential(1.3, n)):               # independent
        ds = Dataset(y=np.minimum(T, C), delta=(T <= C).astype(int))
        summed, _, _ = run_censor_test(
            ds, equal_width_bins(ds.y, 4), n_sim=10, seed=0
        ).table, None, None
        cells = summed.cells
        rank1 = np.outer(cells.sum(axis=1), cells.sum(axis=0)) / cells.sum()
        np.testing.assert_allclose(cells, rank1, atol=1e-9)


def test_dependent_table_detected():
    """The multinomial machinery itself has power: a table whose rows
    genuinely deviate from the pooled marginal is flagged."""
    base = np.outer([300, 260, 200, 140], [0.4, 0.3, 0.2, 0.1])
    dependent = base + 140 * np.eye(4)  # concentrate mass on the diagonal
    t = ContingencyTable((1, 2, 3, 4), (1, 2, 3, 4), dependent)
    res = run_censor_test(table=t, n_sim=2000, seed=3)
    valid = np.concatenate([res.rows.p_values[~np.isnan(res.rows.p_values)],
                            res.cols.p_values[~np.isnan(res.cols.p_values)]])
    assert valid.min() < 0.01
    assert res.verdict == "non-informative rejected"
    # and the overlap summary reflects separation for some profile
    assert np.nanmin(res.rows.min_error_sum) < 0.5


def test_null_equals_alt_when_profile_matches_marginal():
    """A row whose observed proportions equal the column marginal has
    indistinguishable null and alternative samples."""
    marginal = np.array([0.4, 0.3, 0.2, 0.1])
    cells = np.outer([50, 30, 20], marginal)
    t = ContingencyTable((1, 2, 3), (1, 2, 3, 4), cells)
    res = run_censor_test(table=t, n_sim=4000, seed=0)
    for null, alt in zip(res.rows.null_samples, res.rows.alt_samples):
        grid = np.sort(np.concatenate([null, alt]))
        fn = np.searchsorted(np.sort(null), grid, side="right") / null.size
        fa = np.searchsorted(np.sort(alt), grid, side="right") / alt.size
        assert np.abs(fn - fa).max() < 0.05
    # and the minimal error sum is then close to its ceiling of 1
    assert np.nanmin(res.rows.min_error_sum) > 0.9


def test_zero_mass_row_skipped_with_notice():
    cells = np.array([[5.0, 3.0], [0.0, 0.0], [2.0, 4.0]])
    t = ContingencyTable((1, 2, 3), (1, 2), cells)
    res = run_censor_test(table=t, n_sim=500, seed=0)
    assert res.rows.skipped == [1]
    assert np.isnan(res.rows.p_values[1])
    assert any("zero mass" in note for note in res.notes)


def test_row_totals_round_half_up():
    cells = np.array([[1.4, 0.3], [0.4, 0.1]])
    t = ContingencyTable((1, 2), (1, 2), cells)
    res = run_censor_test(table=t, n_sim=100, seed=0)
    # row 2 carries mass 0.5, which rounds up to one draw, not down to none
    assert res.rows.skipped == []
    assert all(s.size == 100 for s in res.rows.null_samples)


def test_requires_input():
    with pytest.raises(ValueError):
        run_censor_test()


def test_write_outputs(tmp_path):
    ds = independent_dataset(5, n=400)
    scheme = equal_width_bins(ds.y[ds.delta == 1], 3)
    res = run_censor_test(ds, scheme, n_sim=200, seed=0)
    written = res.write(tmp_path / "ct")
    names = {p.name for p in written}
    assert {"summed_table.csv", "censored_part.csv", "event_part.csv",
            "censor_test.json"} <= names


def test_sample_csvs_match_csv_writer(tmp_path):
    import csv

    cells = np.array([[5.0, 3.0, 1.0], [0.0, 0.0, 0.0], [2.0, 4.0, 0.5]])
    t = ContingencyTable((1, 2, 3), (1, 2, 3), cells)
    res = run_censor_test(table=t, n_sim=40, seed=3)
    assert res.rows.skipped == [1]
    written = res.write(tmp_path / "ct")
    for stem, axis in (("row", res.rows), ("col", res.cols)):
        expected = tmp_path / f"{stem}_expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "kind", "value"])
            for i, (nu, al) in enumerate(zip(axis.null_samples,
                                             axis.alt_samples)):
                for kind, sample in (("null", nu), ("alt", al)):
                    if sample is None:
                        continue
                    for v in sample:
                        writer.writerow([i + 1, kind, repr(float(v))])
        path = tmp_path / "ct" / f"{stem}_samples.csv"
        assert path in written
        assert path.read_bytes() == expected.read_bytes()
