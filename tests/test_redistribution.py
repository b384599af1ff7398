"""Weight-matrix construction against exact-rational and closed-form oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from survent import (
    Dataset,
    binned_row_masses,
    build_cross_weight_matrix,
    build_weight_matrix,
    categorize,
    censor_cross_table,
    equal_width_bins,
    km_estimate,
)

from conftest import make_random_dataset, make_tied_dataset


def rational_cascade(delta: list[int]) -> list[list[Fraction]]:
    """Independent oracle: the redistribution cascade in exact arithmetic.

    ``delta`` is the status vector in ascending-time order (the trailing
    entry must be 1, i.e. promotion already applied).  Returns one row per
    subject over the event-time columns.
    """
    n = len(delta)
    rows = []
    for i in range(n):
        mass = [Fraction(0)] * n
        mass[i] = Fraction(1)
        for q in range(n):
            if delta[q] == 0 and mass[q] > 0:
                share = mass[q] / (n - q - 1)
                for r in range(q + 1, n):
                    mass[r] += share
                mass[q] = Fraction(0)
        rows.append([mass[j] for j in range(n) if delta[j] == 1])
    return rows


def test_km_hand_example():
    ds = Dataset(y=[1.0, 2.0, 3.0], delta=[1, 0, 1])
    km = km_estimate(ds)
    assert km(0.5) == 1.0
    assert km(1.0) == pytest.approx(2 / 3, abs=1e-15)
    assert km(2.5) == pytest.approx(2 / 3, abs=1e-15)
    assert km(3.0) == 0.0


def test_km_fully_uncensored_is_empirical():
    y = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    ds = Dataset(y=y, delta=np.ones(5, dtype=int))
    km = km_estimate(ds)
    for t in y:
        assert km(t) == pytest.approx(np.mean(y > t), abs=1e-15)


def test_km_all_censored_promotes_single_jump():
    ds = Dataset(y=[1.0, 2.0, 3.0], delta=[0, 0, 0])
    km = km_estimate(ds)
    assert km.jump_times == (3.0,)
    assert km(2.9) == 1.0
    assert km(3.0) == 0.0


def test_km_all_censored_but_last():
    ds = Dataset(y=[1.0, 2.0, 3.0], delta=[0, 0, 1])
    km = km_estimate(ds)
    assert km.jump_times == (3.0,)
    assert km(3.0) == 0.0


def test_golden_fractions(golden10):
    W = build_weight_matrix(golden10)
    assert W.shape == (10, 7)
    W.validate()
    # censored subject at ordered position 3 (columns are positions
    # 1,2,4,5,7,9,10 ordered by time)
    row3 = W.weights[2]
    expected3 = [0, 0, 1 / 7, 1 / 7, 5 / 28, 15 / 56, 15 / 56]
    np.testing.assert_allclose(row3, expected3, atol=1e-12)
    row6 = W.weights[5]
    np.testing.assert_allclose(row6, [0, 0, 0, 0, 1 / 4, 3 / 8, 3 / 8],
                               atol=1e-12)
    row8 = W.weights[7]
    np.testing.assert_allclose(row8, [0, 0, 0, 0, 0, 1 / 2, 1 / 2], atol=1e-12)


def test_golden_matches_rational_oracle(golden10):
    W = build_weight_matrix(golden10)
    delta = [1, 1, 0, 1, 1, 0, 1, 0, 1, 1]
    oracle = rational_cascade(delta)
    for i in range(10):
        np.testing.assert_allclose(W.weights[i],
                                   [float(f) for f in oracle[i]], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_rational_oracle_small_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    y = np.sort(rng.uniform(0, 1, n))
    delta = rng.integers(0, 2, n)
    delta[-1] = 1 if seed % 2 else delta[-1]  # sometimes exercise promotion
    ds = Dataset(y=y, delta=delta)
    W = build_weight_matrix(ds)
    eff = np.array(delta)
    eff[-1] = 1  # oracle needs the promoted status
    oracle = rational_cascade(list(eff))
    for i in range(n):
        np.testing.assert_allclose(W.weights[i],
                                   [float(f) for f in oracle[i]], atol=1e-12)


def test_fully_uncensored_is_permutation_like():
    ds = Dataset(y=[2.0, 1.0, 3.0], delta=[1, 1, 1])
    W = build_weight_matrix(ds)
    assert W.shape == (3, 3)
    np.testing.assert_allclose(np.sort(W.weights, axis=0), np.sort(np.eye(3), axis=0))
    W.validate()


@pytest.mark.parametrize("seed", range(4))
def test_row_stochastic_and_support(seed):
    ds = make_random_dataset(seed, n=80)
    W = build_weight_matrix(ds)
    np.testing.assert_allclose(W.weights.sum(axis=1), 1.0, atol=1e-12)
    W.validate()


@pytest.mark.parametrize("seed", range(4))
def test_column_masses_reproduce_km_jumps(seed):
    ds = make_random_dataset(seed, n=120)
    W = build_weight_matrix(ds)
    km = km_estimate(ds)
    col_mass = W.weights.sum(axis=0) / ds.n
    # aggregate tied columns before comparing with the collapsed step function
    jumps = {}
    for t, m in zip(W.col_times, col_mass):
        jumps[t] = jumps.get(t, 0.0) + m
    km_jumps = dict(zip(km.jump_times, km.jump_sizes))
    assert set(jumps) == set(km_jumps)
    for t in jumps:
        assert jumps[t] == pytest.approx(km_jumps[t], abs=1e-10)


def test_tied_max_censored_mass_not_stranded():
    # censored subject tied at the maximum sorts after the event there
    ds = Dataset(y=[1.0, 2.0, 2.0], delta=[1, 1, 0])
    W = build_weight_matrix(ds)
    np.testing.assert_allclose(W.weights.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed, n, tied", [
    *(pytest.param(s, 90, False, id=str(s)) for s in range(3)),
    pytest.param(3, 90, True, id="tied-90"),
    pytest.param(4, 1500, False, id="1500"),
    pytest.param(5, 1500, True, id="tied-1500"),
])
def test_binned_masses_match_dense(seed, n, tied):
    ds = make_tied_dataset(seed, n) if tied else make_random_dataset(seed, n=n)
    Wd = build_weight_matrix(ds)
    scheme = equal_width_bins(Wd.col_times, 5)
    B, _ = binned_row_masses(ds.y, ds.delta, scheme)
    # reduce the dense matrix with the same binning, in dataset order
    col_bin, _ = categorize(Wd.col_times, scheme)
    dense = np.zeros((ds.n, 5))
    for b in range(1, 6):
        dense[:, b - 1] = Wd.weights[:, col_bin == b].sum(axis=1)
    pos = {rid: i for i, rid in enumerate(Wd.row_ids)}
    idx = [pos[rid] for rid in ds.ids]
    np.testing.assert_allclose(B.T, dense[idx], atol=1e-12)


def test_cross_c_rows_equals_row_extraction(golden10):
    W = build_weight_matrix(golden10)
    Wc = build_cross_weight_matrix(golden10, "C-rows")
    keep = np.flatnonzero(W.row_delta_original == 0)
    assert Wc.shape == (3, 7)
    np.testing.assert_allclose(Wc.weights, W.weights[keep], atol=1e-15)


def test_cross_t_rows_brute_force():
    # events all smaller than all censoring times: each event row cascades
    # over every censoring time
    ds = Dataset(y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], delta=[1, 1, 1, 0, 0, 0])
    Wt = build_cross_weight_matrix(ds, "T-rows")
    assert Wt.shape == (3, 3)
    oracle = rational_cascade([0, 0, 0, 1, 1, 1])
    for i in range(3):
        np.testing.assert_allclose(Wt.weights[i],
                                   [float(f) for f in oracle[i]], atol=1e-12)
    np.testing.assert_allclose(Wt.weights.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_cross_t_rows_random_vs_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = 6
    y = np.sort(rng.uniform(0, 1, n))
    delta = rng.integers(0, 2, n)
    delta[0] = 1
    delta[-1] = 0  # ensure both kinds and exercise flip promotion logic
    ds = Dataset(y=y, delta=delta)
    Wt = build_cross_weight_matrix(ds, "T-rows")
    flipped = 1 - delta
    eff = np.array(flipped)
    eff[-1] = 1
    oracle = rational_cascade(list(eff))
    rows = [oracle[i] for i in range(n) if flipped[i] == 0]
    for got, want in zip(Wt.weights, rows):
        np.testing.assert_allclose(got, [float(f) for f in want], atol=1e-12)


def test_cross_requires_both_kinds():
    scheme = equal_width_bins([0.0, 3.0], 2)
    for delta in ([1, 1], [0, 0]):
        ds = Dataset(y=[1.0, 2.0], delta=delta)
        with pytest.raises(ValueError):
            build_cross_weight_matrix(ds, "C-rows")
        with pytest.raises(ValueError):
            censor_cross_table(ds, scheme)


def test_empty_dataset_errors():
    ds = Dataset(y=[], delta=[])
    with pytest.raises(ValueError):
        km_estimate(ds)
    with pytest.raises(ValueError):
        build_weight_matrix(ds)
