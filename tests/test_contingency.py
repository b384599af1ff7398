"""Table construction: mass conservation, fusion, structural zeros."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from survent import (
    ContingencyTable,
    Dataset,
    build_cross_weight_matrix,
    build_weight_matrix,
    categorize,
    censor_cross_table,
    conditional_entropy,
    equal_width_bins,
    explicit_bins,
    fuse_categories,
    marginal_entropies,
    table_from_binned,
    table_from_weights,
    table_plain,
)

from conftest import make_random_dataset, make_tied_dataset


def test_table_plain_all_ones():
    t = table_plain(np.array([1, 1, 2, 2]), np.array([1, 2, 1, 2]))
    np.testing.assert_array_equal(t.cells, [[1, 1], [1, 1]])
    assert t.total == 4


def test_table_plain_constant_response():
    t = table_plain(np.array([1, 2, 1]), np.array([1, 1, 1]))
    assert t.cells.shape == (2, 1)
    np.testing.assert_array_equal(t.col_sums(), [3])


def test_fuse_pointwise():
    codes, labels = fuse_categories([np.array([1, 2]), np.array([1, 1])])
    assert labels == [(1, 1), (2, 1)]
    assert codes.tolist() == [1, 2]


def sort_table_from_binned(B, codes):
    """table_from_binned's cells built on a sorting np.unique, as oracle."""
    uniq, inv = np.unique(codes, return_inverse=True)
    k = B.shape[1]
    flat = inv[:, None] * k + np.arange(k)[None, :]
    return np.bincount(flat.ravel(), weights=B.ravel(),
                       minlength=uniq.size * k).reshape(uniq.size, k)


# (n, vectors, pool of codes each vector draws from, first vector's span > n)
FUSE_CASES = {
    "n1": (1, 3, np.arange(-3, 4), False),
    "n10-dense": (10, 2, np.arange(-3, 5, 2), False),
    "n10-sparse": (10, 3, np.arange(-1000, 1000, 7), True),
    "n1e4-dense": (10_000, 3, np.arange(-6, 20, 3), False),
    "n1e4-sparse": (10_000, 2, np.arange(-10**6, 10**6, 13), True),
    "radix-past-2^63": (10, 3, np.array([-2**62, -1, 5, 2**62 - 1]), True),
}


@pytest.mark.parametrize("case", list(FUSE_CASES))
def test_fuse_materializes_only_observed(case):
    n, p, pool, sparse = FUSE_CASES[case]
    rng = np.random.default_rng(3)
    vecs = [rng.choice(rng.choice(pool, 4, replace=False), n) for _ in range(p)]
    assert (int(vecs[0].max()) - int(vecs[0].min()) + 1 > n) == sparse
    codes, labels = fuse_categories(vecs)
    assert len(labels) <= 4**p
    assert len(labels) == len(set(labels))
    assert sorted(labels) == labels  # lexicographic

    # the sorting np.unique over stacked rows is the oracle
    uniq, inverse = np.unique(np.stack(vecs, 1), axis=0, return_inverse=True)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, inverse.ravel() + 1)
    assert labels == [tuple(int(x) for x in row) for row in uniq]
    assert all(type(x) is int for lab in labels for x in lab)

    B = rng.uniform(0, 1, (n, 4))
    for row_codes in (vecs[0], codes):
        table = table_from_binned(B.T, row_codes)
        assert np.array_equal(table.cells, sort_table_from_binned(B, row_codes))
        assert table.row_labels == tuple(int(v) for v in np.unique(row_codes))
    ux, xi = np.unique(vecs[0], return_inverse=True)
    uy, yi = np.unique(vecs[-1], return_inverse=True)
    plain_ref = np.zeros((ux.size, uy.size))
    np.add.at(plain_ref, (xi, yi), 1.0)
    t1 = table_plain(vecs[0], vecs[-1])
    assert np.array_equal(t1.cells, plain_ref)
    assert t1.row_labels == tuple(int(v) for v in ux)
    assert t1.col_labels == tuple(int(v) for v in uy)

    # fusing a vector with itself is a bijective relabeling: entropy equal
    fused, _ = fuse_categories([vecs[0], vecs[0]])
    t2 = table_plain(fused, vecs[-1])
    ce1, _ = conditional_entropy(t1)
    ce2, _ = conditional_entropy(t2)
    assert ce1 == pytest.approx(ce2, abs=1e-12)


def test_codes_must_be_integral():
    for bad in (np.array([1.5, 2.5]), np.array([1.0, np.nan]),
                np.array([1.0, 2.0**63])):
        with pytest.raises(ValueError, match="integral"):
            fuse_categories([bad])
        with pytest.raises(ValueError, match="integral"):
            table_plain(bad, np.array([1, 2]))
        with pytest.raises(ValueError, match="integral"):
            table_from_binned(np.ones((3, 2)), bad)
    codes, labels = fuse_categories([np.array([2.0, 1.0]), np.array([1, 1])])
    assert codes.tolist() == [2, 1]
    assert labels == [(1, 1), (2, 1)]
    assert all(type(x) is int for lab in labels for x in lab)
    # n = 0 stays valid: empty codes, no levels
    codes, labels = fuse_categories([np.array([], dtype=int), np.array([])])
    assert codes.shape == (0,) and labels == []
    assert table_plain(np.array([]), np.array([])).cells.shape == (0, 0)


def test_fuse_mismatched_lengths():
    with pytest.raises(ValueError):
        fuse_categories([np.array([1, 2]), np.array([1])])
    with pytest.raises(ValueError):
        fuse_categories([])


def test_weighted_table_uncensored_is_diagonal():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    ds = Dataset(y=y, delta=np.ones(4, dtype=int))
    W = build_weight_matrix(ds)
    scheme = equal_width_bins(y, 4)
    row_cats, _ = categorize(W.row_y, scheme)
    table = table_from_weights(W, row_cats, scheme)
    np.testing.assert_allclose(table.cells, np.eye(4))


def test_weighted_table_golden_fractions(golden10):
    """Two time bins splitting the 7 event columns 4/3, all rows one
    category: the entries are the exact column-mass sums."""
    W = build_weight_matrix(golden10)
    # columns are at times 1,2,4,5,7,9,10; split {1,2,4,5} vs {7,9,10}
    scheme = explicit_bins([1.0, 6.0, 10.0])
    table = table_from_weights(W, np.ones(10, dtype=int), scheme)
    f = Fraction
    left = 4 + 2 * f(1, 7)  # four unit point masses + row3's two 1/7 entries
    right = (
        3  # three unit point masses
        + f(5, 28) + 2 * f(15, 56)  # rest of row 3
        + f(1, 4) + 2 * f(3, 8)     # row 6
        + 2 * f(1, 2)               # row 8
    )
    np.testing.assert_allclose(table.cells, [[float(left), float(right)]],
                               atol=1e-12)
    assert table.total == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_weighted_table_total_is_row_count(seed):
    ds = make_random_dataset(seed, n=70)
    W = build_weight_matrix(ds)
    scheme = equal_width_bins(W.col_times, 4)
    cats = np.asarray((np.arange(ds.n) % 3) + 1)
    table = table_from_weights(W, cats, scheme)
    assert table.total == pytest.approx(ds.n, abs=1e-9)


def test_weighted_equals_plain_when_uncensored():
    rng = np.random.default_rng(11)
    y = rng.uniform(0, 1, 50)
    ds = Dataset(y=y, delta=np.ones(50, dtype=int),
                 X=rng.uniform(0, 1, (50, 1)))
    W = build_weight_matrix(ds)
    scheme = equal_width_bins(y, 4)
    feat_scheme = equal_width_bins(ds.X[:, 0], 3)
    cats_ds, _ = categorize(ds.X[:, 0], feat_scheme)
    # align categories with the weight-matrix row order
    pos = {rid: i for i, rid in enumerate(ds.ids)}
    cats_w = np.array([cats_ds[pos[rid]] for rid in W.row_ids])
    weighted = table_from_weights(W, cats_w, scheme)
    ybins, _ = categorize(y, scheme)
    plain = table_plain(cats_ds, ybins)
    np.testing.assert_allclose(weighted.cells, plain.cells, atol=1e-12)


def test_coarsening_merges_rows():
    cells = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    fine = ContingencyTable((1, 2, 3), (1, 2), cells)
    merged = ContingencyTable((1, 2), (1, 2),
                              np.vstack([cells[0] + cells[1], cells[2]]))
    np.testing.assert_allclose(merged.cells.sum(axis=0), fine.cells.sum(axis=0))
    assert merged.total == fine.total


def test_composite_table_preserves_total(golden10):
    W = build_weight_matrix(golden10)
    scheme = explicit_bins([1.0, 5.0, 10.0])
    a = np.array([1, 1, 2, 2, 1, 2, 1, 2, 1, 2])
    b = np.array([1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
    fused, labels = fuse_categories([a, b])
    table = table_from_weights(W, fused, scheme, row_labels=labels)
    assert table.total == pytest.approx(10.0, abs=1e-12)
    assert len(table.row_labels) <= 4


@pytest.mark.parametrize("seed", range(3))
def test_censor_cross_structural_zeros(seed):
    ds = make_random_dataset(seed, n=150, censor_frac=0.45)
    scheme = equal_width_bins(ds.y, 4)
    summed, c_part, t_part = censor_cross_table(ds, scheme)
    upper = c_part.cells
    lower = t_part.cells
    for i in range(4):
        for j in range(4):
            if j < i:
                assert upper[i, j] == 0.0  # event mass only at bins >= C's bin
            if j > i:
                assert lower[i, j] == 0.0  # censoring mass only at bins <= C's
    np.testing.assert_allclose(summed.cells, upper + lower, atol=1e-12)


def cascade_cross_tables(ds, scheme):
    """Censored and transposed event parts from the dense cascade, embedded
    into the full k x k grid."""
    k = scheme.nbins
    parts = []
    for direction in ("C-rows", "T-rows"):
        W = build_cross_weight_matrix(ds, direction)
        rows, _ = categorize(W.row_y, scheme)
        part = table_from_weights(W, rows, scheme)
        cells = np.zeros((k, k))
        cells[np.asarray(part.row_labels) - 1] = part.cells
        parts.append(cells)
    return parts[0], parts[1].T


@pytest.mark.parametrize("n", [10, 200, 1500])
@pytest.mark.parametrize("tied", [False, True])
def test_censor_cross_matches_cascade(n, tied):
    ds = make_tied_dataset(n, n) if tied else make_random_dataset(n, n=n)
    scheme = equal_width_bins(ds.y, 5)
    summed, c_part, t_part = censor_cross_table(ds, scheme)
    c_ref, t_ref = cascade_cross_tables(ds, scheme)
    np.testing.assert_allclose(c_part.cells, c_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(t_part.cells, t_ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(summed.cells, c_ref + t_ref, rtol=0, atol=1e-9)


def test_censor_cross_mass_accounting():
    ds = make_random_dataset(5, n=200, censor_frac=0.4)
    scheme = equal_width_bins(ds.y, 4)
    summed, c_part, t_part = censor_cross_table(ds, scheme)
    orig = ds.original_delta()
    n_c = int((orig == 0).sum())
    n_u = int((orig == 1).sum())
    assert c_part.total == pytest.approx(n_c, abs=1e-9)
    assert t_part.total == pytest.approx(n_u, abs=1e-9)
    assert summed.total == pytest.approx(ds.n, abs=1e-9)


def test_censor_cross_independent_rescaled_ces_near_one():
    """With event and censoring times drawn independently from the same
    law, no row profile should look much different from the pooled one."""
    rng = np.random.default_rng(42)
    n = 2000
    T = rng.exponential(1.0, n)
    C = rng.exponential(1.0, n)
    ds = Dataset(y=np.minimum(T, C), delta=(T <= C).astype(int))
    scheme = equal_width_bins(ds.y[ds.delta == 1], 4)
    summed, _, _ = censor_cross_table(ds, scheme)
    values = conditional_entropy(summed)[1] / marginal_entropies(summed)[1]
    assert np.all((values > 0.9) & (values < 1.1))


def test_table_validation():
    with pytest.raises(ValueError):
        ContingencyTable((1,), (1, 2), np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        ContingencyTable((1,), (1,), np.array([[1.0, 2.0]]))


def test_table_csv_and_triplets(tmp_path):
    t = ContingencyTable(((1, 2), (2, 2)), (1, 2),
                         np.array([[1.5, 0.0], [0.0, 2.5]]))
    path = tmp_path / "t.csv"
    t.to_csv(path)
    assert "1_2" in path.read_text()


def test_table_from_binned_alignment_error():
    with pytest.raises(ValueError):
        table_from_binned(np.ones((2, 3)), np.array([1, 2]))
