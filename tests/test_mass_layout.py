"""The (k, n) mass layout and the one weighted-cell kernel: structural
invariants at small and large n, and bit-identity of the cells against the
accumulations they replaced."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survent import (
    Dataset,
    binned_row_masses,
    categorize,
    categorize_features,
    censor_cross_table,
    ce_expansion,
    equal_width_bins,
    explicit_bins,
    fuse_categories,
    reliability_null,
    run_mfs,
    table_from_binned,
)
from survent import redistribution
from survent.entropy import _entropy_of_counts
from survent.redistribution import collection_masses

from conftest import make_random_dataset, make_tied_dataset


def check_structure(ds: Dataset, scheme, row_codes) -> None:
    """Mass rows, table totals and censoring cross-table totals."""
    n, k = ds.n, scheme.nbins
    M, _ = binned_row_masses(ds.y, ds.delta, scheme)
    assert M.shape == (k, n)
    assert M.flags.c_contiguous
    assert np.all(M >= 0)
    np.testing.assert_allclose(M.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    for codes in row_codes:
        total = table_from_binned(M, codes).total
        assert total == pytest.approx(n, rel=1e-12, abs=1e-9)
    _, c_part, t_part = censor_cross_table(ds, scheme)
    assert c_part.total == pytest.approx(ds.n_c, rel=1e-12, abs=1e-9)
    assert t_part.total == pytest.approx(ds.n_u, rel=1e-12, abs=1e-9)


records = st.lists(st.tuples(st.integers(1, 8), st.integers(0, 1)),
                   min_size=1, max_size=57)
# statuses of the records at the largest time, at least one censored
top = st.lists(st.integers(0, 1), min_size=1, max_size=3).filter(
    lambda s: 0 in s)


@settings(max_examples=200, deadline=None)
@given(body=records, last=top, k=st.integers(2, 6),
       seed=st.integers(0, 2**16))
def test_structure_small_n_ties_and_trailing_censored(body, last, k, seed):
    y = np.array([t for t, _ in body] + [9] * len(last), dtype=float)
    delta = np.array([d for _, d in body] + last)
    assume(delta.any())
    ds = Dataset(y=y, delta=delta)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(1, 4, ds.n), rng.integers(-2, 2, ds.n)
    fused, _ = fuse_categories([a, b])
    check_structure(ds, explicit_bins(np.linspace(1.0, 9.0, k + 1)),
                    [np.ones(ds.n), a, fused])


def test_masses_reject_bad_status():
    scheme = explicit_bins([0.0, 2.0, 4.0])
    y = np.array([1.0, 2.0, 3.0])
    for delta in ([0, 2, 1], [0, 1], [1, -1, 1]):
        with pytest.raises(ValueError, match="status"):
            binned_row_masses(y, np.array(delta), scheme)


def test_structure_large_n():
    ds = make_tied_dataset(7, 100_000)
    assert ds.n_c > 0 and ((ds.delta == 0) & (ds.y == ds.y.max())).sum() == 2
    cats = categorize_features(ds, n_bins=10)
    fused, _ = fuse_categories([cats.column("V1"), cats.column("V2")])
    check_structure(ds, equal_width_bins(ds.y, 10),
                    [np.ones(ds.n), cats.column("V1"), fused])


def add_at_cross_parts(ds, scheme):
    """Both censoring cross-table addends accumulated row by row with
    ``np.add.at`` over an n x k copy of the masses."""
    k = scheme.nbins
    own_bin, _ = categorize(ds.y, scheme)
    parts = []
    for delta in (ds.delta, 1 - ds.delta):
        M, _ = binned_row_masses(ds.y, delta, scheme)
        keep = delta == 0
        cells = np.zeros((k, k))
        np.add.at(cells, own_bin[keep] - 1, np.ascontiguousarray(M.T)[keep])
        parts.append(cells)
    return parts[0], parts[1].T


@pytest.mark.parametrize("ds", [
    pytest.param(make_random_dataset(5, n=200, censor_frac=0.4), id="200"),
    pytest.param(make_tied_dataset(3, 90), id="tied-90"),
    pytest.param(make_tied_dataset(4, 3000), id="tied-3000"),
    pytest.param(make_random_dataset(6, n=10_000), id="10000"),
])
def test_censor_cross_parts_bit_identical_to_add_at(ds):
    scheme = equal_width_bins(ds.y, 7)
    summed, c_part, t_part = censor_cross_table(ds, scheme)
    c_ref, t_ref = add_at_cross_parts(ds, scheme)
    assert np.array_equal(c_part.cells, c_ref)
    assert np.array_equal(t_part.cells, t_ref)
    assert np.array_equal(summed.cells, c_ref + t_ref)


@pytest.mark.filterwarnings("ignore:.*composite categories:UserWarning")
@pytest.mark.parametrize("seed, n, tied", [
    (0, 50, False), (1, 400, True), (2, 3000, False), (3, 10_000, True),
])
def test_response_margin_bit_identical_to_row_order_sum(seed, n, tied):
    ds = make_tied_dataset(seed, n) if tied else make_random_dataset(seed, n=n)
    scheme = equal_width_bins(ds.y, 10)
    M, _ = binned_row_masses(ds.y, ds.delta, scheme)
    expected = _entropy_of_counts(np.ascontiguousarray(M.T).sum(axis=0))
    cats = categorize_features(ds, n_bins=4)
    reports = run_mfs(ds, scheme, cats=cats, max_order=1)
    assert reports[1].h_response == expected
    assert ce_expansion(ds, scheme, cats, "V1").h_response == expected


def counted_builds(monkeypatch) -> list:
    """Record the schemes of every build that goes through the memo."""
    builds = []
    original = redistribution.binned_row_masses

    def counted(y, delta, scheme):
        builds.append(scheme)
        return original(y, delta, scheme)
    monkeypatch.setattr(redistribution, "binned_row_masses", counted)
    return builds


@pytest.mark.filterwarnings("ignore:.*composite categories:UserWarning")
def test_collection_masses_built_once_across_stages(monkeypatch):
    builds = counted_builds(monkeypatch)
    ds = make_random_dataset(7, n=300, censor_frac=0.4)
    scheme = equal_width_bins(ds.y, 5)
    cats = categorize_features(ds, n_bins=3)
    run_mfs(ds, scheme, cats=cats, max_order=2)
    reliability_null(ds, scheme, n_rep=5, seed=1)
    ce_expansion(ds, scheme, cats, "V1", ["V2"])
    censor_cross_table(ds, scheme)
    assert builds == [scheme]


def test_collection_masses_memo_is_keyed_by_scheme_value(monkeypatch):
    builds = counted_builds(monkeypatch)
    ds = make_random_dataset(8, n=120)
    first = collection_masses(ds, explicit_bins([0.0, 1.0, 2.0, 50.0]))
    again = collection_masses(ds, explicit_bins([0, 1, 2, 50]))
    assert again is first
    other = collection_masses(ds, explicit_bins([0.0, 1.5, 50.0]))
    assert other.shape == (2, ds.n)
    assert len(builds) == 2


def test_collection_masses_read_only_and_bit_identical():
    ds = make_tied_dataset(9, 400)
    scheme = equal_width_bins(ds.y, 6)
    masses = collection_masses(ds, scheme)
    expected, _ = binned_row_masses(ds.y, ds.delta, scheme)
    assert not masses.flags.writeable
    with pytest.raises(ValueError):
        masses[0, 0] = 1.0
    assert masses.dtype == expected.dtype
    assert masses.tobytes() == expected.tobytes()


def test_collection_masses_entry_dies_with_its_dataset():
    ds = make_random_dataset(10, n=80)
    masses = weakref.ref(collection_masses(ds, equal_width_bins(ds.y, 4)))
    assert ds in redistribution._MASSES
    assert masses() is not None  # the memo holds the rows
    ds_ref = weakref.ref(ds)
    del ds
    gc.collect()
    assert ds_ref() is None
    assert masses() is None
