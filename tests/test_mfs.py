"""Feature-set ranking, reliability nulls, subdivision, expansions."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from survent import (
    Dataset,
    DegenerateRangeError,
    assign_code_ids,
    categorize,
    categorize_features,
    ce_expansion,
    conditional_entropy,
    equal_width_bins,
    fuse_categories,
    mce_matrix,
    reliability_null,
    run_mfs,
    subdivide,
    table_from_binned,
)
from survent.redistribution import binned_row_masses

from conftest import make_random_dataset


def planted_dataset(seed: int = 0, n: int = 1500) -> Dataset:
    """V1 drives the event time; V2 xor-style with V3; V4 pure noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 4))
    eta = 1.5 * X[:, 0] + np.sin(2 * np.pi * (X[:, 1] + X[:, 2]))
    T = (rng.exponential(1.0, n) * np.exp(-eta)) ** (2 / 3)
    C = rng.exponential(np.quantile(T, 0.9) * 3, n)
    return Dataset(y=np.minimum(T, C), delta=(T <= C).astype(int), X=X)


@pytest.fixture(scope="module")
def planted():
    ds = planted_dataset()
    scheme = equal_width_bins(ds.y[ds.delta == 1], 6)
    return ds, scheme


def test_run_mfs_shapes_and_order(planted):
    ds, scheme = planted
    reports = run_mfs(ds, scheme, max_order=3)
    assert set(reports) == {1, 2, 3}
    assert len(reports[1].records) == 4
    assert len(reports[2].records) == 6
    assert len(reports[3].records) == 4
    for report in reports.values():
        ces = [r.ce for r in report.records]
        assert ces == sorted(ces)
        for rec in report.records:
            assert rec.ce_drop == pytest.approx(report.h_response - rec.ce,
                                                abs=1e-12)
            assert rec.sce_drop <= rec.ce_drop + 1e-12


def test_run_mfs_finds_planted_structure(planted):
    ds, scheme = planted
    reports = run_mfs(ds, scheme, max_order=2)
    assert reports[1].records[0].features == ("V1",)
    top_pair = reports[2].records[0]
    assert set(top_pair.features) == {"V2", "V3"}
    assert top_pair.interacting
    assert top_pair.ecological_flag
    # noise feature sits at the bottom with a near-zero drop
    noise = reports[1].record_for(["V4"])
    assert noise.ce_drop < 0.02


def test_run_mfs_rejects_bad_order(planted):
    ds, scheme = planted
    with pytest.raises(ValueError):
        run_mfs(ds, scheme, max_order=4)
    with pytest.raises(ValueError):
        run_mfs(ds, scheme, max_order=0)


def test_run_mfs_column_permutation_invariant(planted):
    ds, scheme = planted
    perm = [2, 0, 3, 1]
    ds_perm = Dataset(y=ds.y, delta=ds.delta, X=ds.X[:, perm],
                      feature_names=[ds.feature_names[j] for j in perm])
    a = run_mfs(ds, scheme, max_order=2)
    b = run_mfs(ds_perm, scheme, max_order=2)
    for order in (1, 2):
        for ra, rb in zip(a[order].records, b[order].records):
            assert set(ra.features) == set(rb.features)
            assert ra.ce == pytest.approx(rb.ce, abs=1e-12)
            assert ra.sce_drop == pytest.approx(rb.sce_drop, abs=1e-12)


def test_pair_sce_plus_best_equals_joint(planted):
    ds, scheme = planted
    reports = run_mfs(ds, scheme, max_order=2)
    singles = {r.features[0]: r.ce_drop for r in reports[1].records}
    for rec in reports[2].records:
        a, b = rec.features
        assert rec.sce_drop + max(singles[a], singles[b]) == pytest.approx(
            rec.ce_drop, abs=1e-12)


def test_triplet_sce_vs_best_subpair(planted):
    ds, scheme = planted
    reports = run_mfs(ds, scheme, max_order=3)
    pair_drop = {frozenset(r.features): r.ce_drop for r in reports[2].records}
    for rec in reports[3].records:
        best = max(pair_drop[frozenset(p)]
                   for p in (
                       (rec.features[0], rec.features[1]),
                       (rec.features[0], rec.features[2]),
                       (rec.features[1], rec.features[2]),
                   ))
        assert rec.sce_drop == pytest.approx(rec.ce_drop - best, abs=1e-12)


def test_independent_response_all_drops_in_noise_band():
    rng = np.random.default_rng(77)
    n = 2000
    X = rng.uniform(0, 1, (n, 4))
    T = rng.exponential(1.0, n)  # independent of every feature
    C = rng.exponential(3.0, n)
    ds = Dataset(y=np.minimum(T, C), delta=(T <= C).astype(int), X=X)
    scheme = equal_width_bins(ds.y[ds.delta == 1], 5)
    reports = run_mfs(ds, scheme, max_order=1)
    null = reliability_null(ds, scheme, n_rep=200, seed=5)
    lo = np.quantile(null.ces, 0.005)
    for rec in reports[1].records:
        assert rec.ce > lo


def test_reliability_pvalue_separation(planted):
    ds, scheme = planted
    reports = run_mfs(ds, scheme, max_order=1)
    null = reliability_null(ds, scheme, n_rep=200, seed=1)
    assert null.p_value(reports[1].record_for(["V1"]).ce) == 0.0
    p_noise = null.p_value(reports[1].record_for(["V4"]).ce)
    assert p_noise > 0.05


def test_reliability_null_fresh_draw_calibration():
    """A noise feature's p-value against the null is roughly uniform."""
    rng = np.random.default_rng(42)
    ds = make_random_dataset(3, n=300, n_features=2)
    scheme = equal_width_bins(ds.y[ds.delta == 1], 4)
    null = reliability_null(ds, scheme, n_rep=200, seed=9)
    from survent import categorize, table_from_binned
    from survent.entropy import conditional_entropy
    from survent.redistribution import binned_row_masses

    B, _ = binned_row_masses(ds.y, ds.delta, scheme)
    pvals = []
    for _ in range(100):
        noise = rng.uniform(0, 1, ds.n)
        codes, _ = categorize(noise, equal_width_bins(noise, 4))
        ce, _ = conditional_entropy(table_from_binned(B, codes))
        pvals.append(null.p_value(ce))
    pvals = np.sort(pvals)
    ks = np.abs(pvals - (np.arange(1, 101) - 0.5) / 100).max()
    assert ks < 0.1


def test_reliability_null_with_anchor(planted):
    ds, scheme = planted
    cats = categorize_features(ds, n_bins=4)
    null = reliability_null(ds, scheme, cats=cats, anchor_set=("V1",),
                            n_rep=50, seed=2)
    reports = run_mfs(ds, scheme, cats=cats, max_order=1)
    ce_v1 = reports[1].record_for(["V1"]).ce
    # fusing noise onto the anchor can only reduce the plug-in CE below the
    # anchor's own
    assert np.all(null.ces <= ce_v1 + 1e-12)


def tiny_degenerate_subcollection(n_features: int = 2):
    """17 records with a single event, and a time scheme it barely fills."""
    rng = np.random.default_rng(0)
    n = 17
    delta = np.zeros(n, dtype=int)
    delta[3] = 1
    ds = Dataset(y=rng.uniform(1, 5, n), delta=delta,
                 X=rng.uniform(0, 1, (n, n_features)))
    return ds, equal_width_bins(np.array([1.0, 5.0]), 4)


def test_reliability_null_tiny_degenerate_subcollection():
    ds, scheme = tiny_degenerate_subcollection()
    null = reliability_null(ds, scheme, n_rep=200, seed=0)
    assert np.all(np.isfinite(null.ces))


def null_per_replicate(ds, scheme, cats, anchor_set, n_rep, n_bins, seed):
    """The null built one table per replicate: the reference construction."""
    B, _ = binned_row_masses(ds.y, ds.delta, scheme)
    anchor_codes = [cats.column(f) for f in anchor_set]
    out = []
    for stream in np.random.SeedSequence(seed).spawn(n_rep):
        noise = np.random.default_rng(stream).uniform(0.0, 1.0, ds.n)
        codes, _ = categorize(noise, equal_width_bins(noise, n_bins))
        if anchor_codes:
            codes, _ = fuse_categories([codes, *anchor_codes])
        ce, _ = conditional_entropy(table_from_binned(B, codes))
        out.append(ce)
    return np.array(out)


def null_case(n: int):
    if n == 17:
        return tiny_degenerate_subcollection(n_features=3)
    ds = make_random_dataset(n, n=n, n_features=3)
    return ds, equal_width_bins(ds.y[ds.delta == 1], 4)


@pytest.mark.parametrize("n_rep", [1, 7, 200])
@pytest.mark.parametrize("anchor_set", [(), ("V2",), ("V1", "V2", "V3")],
                         ids=["no-anchor", "anchor1", "anchor3"])
@pytest.mark.parametrize("n_bins", [4, 10])
@pytest.mark.parametrize("n", [17, 300, 3000])
def test_reliability_null_matches_per_replicate_tables(n, n_bins, anchor_set,
                                                       n_rep):
    ds, scheme = null_case(n)
    cats = categorize_features(ds, n_bins=n_bins)
    null = reliability_null(ds, scheme, cats=cats, anchor_set=anchor_set,
                            n_rep=n_rep, n_bins=n_bins, seed=n_rep)
    expected = null_per_replicate(ds, scheme, cats, anchor_set, n_rep,
                                  n_bins, seed=n_rep)
    assert null.ces.shape == (n_rep,)
    np.testing.assert_allclose(null.ces, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, k", [(300, 150), (3000, 15)])
def test_reliability_null_prefix_is_independent_of_blocks(n, k):
    # k replicates split into blocks differently than 200 do, and k spans
    # more than one block of 2**15 // n replicates
    assert k > 2 ** 15 // n
    ds, scheme = null_case(n)
    cats = categorize_features(ds, n_bins=4)
    for anchor_set in [(), ("V1", "V3")]:
        full = reliability_null(ds, scheme, cats=cats, anchor_set=anchor_set,
                                n_rep=200, seed=4)
        head = reliability_null(ds, scheme, cats=cats, anchor_set=anchor_set,
                                n_rep=k, seed=4)
        assert np.array_equal(head.ces, full.ces[:k])


def test_reliability_null_error_paths():
    one = Dataset(y=[1.0], delta=[1], X=[[0.5]])
    scheme = equal_width_bins([0.0, 2.0], 4)
    with pytest.raises(DegenerateRangeError):
        reliability_null(one, scheme, n_rep=5)
    ds, scheme = null_case(300)
    with pytest.raises(ValueError, match="n_rep"):
        reliability_null(ds, scheme, n_rep=0)
    with pytest.raises(ValueError, match="n_bins"):
        reliability_null(ds, scheme, n_rep=5, n_bins=1)


def test_subdivide_partition_laws(planted):
    ds, scheme = planted
    cats = categorize_features(ds, n_bins=4)
    subs = subdivide(ds, cats, "V2")
    total = sum(sub.n for _, sub in subs)
    assert total == ds.n
    all_ids = sorted(i for _, sub in subs for i in sub.ids)
    assert all_ids == sorted(ds.ids)
    for level, sub in subs:
        col = cats.column("V2")[[ds.ids.index(i) for i in sub.ids]]
        assert np.all(col == level)
        assert sub.meta["subcollection"] == f"V2={level}"


def test_subdivide_constant_feature_single_block():
    ds = Dataset(y=[1.0, 2.0, 3.0], delta=[1, 1, 0],
                 X=[[2.0], [2.0], [2.0]], feature_names=["c"])
    cats = categorize_features(ds)
    subs = subdivide(ds, cats, "c")
    assert len(subs) == 1 and subs[0][1].n == 3


def test_subdivide_empty_category_warns():
    ds = Dataset(y=[1.0, 2.0, 3.0, 4.0], delta=[1, 1, 0, 1],
                 X=[[0.0], [0.1], [0.9], [1.0]], feature_names=["f"])
    cats = categorize_features(ds, n_bins=4)  # middle bins empty
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        subs = subdivide(ds, cats, "f")
    assert len(subs) == 2
    assert any("omitted" in str(w.message) for w in caught)


def test_mce_duplicate_and_independent():
    rng = np.random.default_rng(12)
    n = 5000
    a = rng.uniform(0, 1, n)
    X = np.column_stack([a, a, rng.uniform(0, 1, n)])
    ds = Dataset(y=rng.exponential(1, n), delta=np.ones(n, dtype=int), X=X,
                 feature_names=["a", "dup", "ind"])
    cats = categorize_features(ds, n_bins=4)
    res = mce_matrix(cats)
    i, j, k = 0, 1, 2
    assert res.matrix[i, j] == pytest.approx(0.0, abs=1e-12)
    assert res.matrix[i, k] > 0.99
    assert ("a", "dup") in [(x, y) for x, y, _ in res.edges]


def test_mce_noised_duplicate_monotone():
    rng = np.random.default_rng(5)
    n = 4000
    a = rng.uniform(0, 1, n)
    scores = []
    for noise in (0.05, 0.2, 0.8):
        b = (a + rng.normal(0, noise, n)) % 1.0
        ds = Dataset(y=np.ones(n), delta=np.ones(n, dtype=int),
                     X=np.column_stack([a, b]), feature_names=["a", "b"])
        cats = categorize_features(ds, n_bins=4)
        scores.append(mce_matrix(cats).matrix[0, 1])
    assert 0 < scores[0] < scores[1] < scores[2] <= 1.01


def test_subdivide_deassociates_confounded_features():
    """With a confounder driving two otherwise-independent features, the
    within-category association must be weaker (pairwise score closer to 1)
    than in the pooled data."""
    rng = np.random.default_rng(21)
    n = 6000
    z = rng.integers(0, 4, n).astype(float)
    a = z + rng.uniform(0, 1, n)  # both track the confounder
    b = z + rng.uniform(0, 1, n)
    ds = Dataset(y=rng.exponential(1, n), delta=np.ones(n, dtype=int),
                 X=np.column_stack([z, a, b]), feature_names=["z", "a", "b"])
    cats = categorize_features(ds, n_bins=4)
    pooled = mce_matrix(cats, features=("a", "b")).matrix[0, 1]
    within = []
    for _, sub in subdivide(ds, cats, "z"):
        sub_cats = categorize_features(sub, n_bins=4)
        within.append(mce_matrix(sub_cats, features=("a", "b")).matrix[0, 1])
    assert min(within) > pooled
    assert np.mean(within) > 0.95


def test_mce_constant_feature_reported_as_one():
    ds = Dataset(y=[1.0, 2.0], delta=[1, 1], X=[[1.0, 0.2], [1.0, 0.6]],
                 feature_names=["const", "v"])
    cats = categorize_features(ds)
    res = mce_matrix(cats)
    assert res.matrix[0, 1] == 1.0


def test_ce_expansion_refinement(planted):
    ds, scheme = planted
    cats = categorize_features(ds, n_bins=4)
    exp = ce_expansion(ds, scheme, cats, "V1", ["V2", ("V2", "V3")])
    base = exp.series("V1")
    comp = exp.series("V1_V2")
    assert base and comp
    # mass-weighted composite CE never exceeds the base CE (refinement)
    for cat in {d.category[0] for d in base}:
        base_ce = next(d.raw_ce for d in base if d.category == (cat,))
        rows = [d for d in comp if d.category[0] == cat]
        avg = sum(d.raw_ce * d.mass for d in rows) / sum(d.mass for d in rows)
        assert avg <= base_ce + 1e-10
    # masses add up within each series
    assert sum(d.mass for d in base) == pytest.approx(ds.n, abs=1e-9)
    assert sum(d.mass for d in comp) == pytest.approx(ds.n, abs=1e-9)


def test_ce_expansion_perfect_refinement_zero_dots():
    # the extension splits each base category into pure response rows
    y = np.array([1.0, 1.1, 5.0, 5.1, 1.0, 1.1, 5.0, 5.1])
    ds = Dataset(y=y, delta=np.ones(8, dtype=int),
                 X=np.column_stack([np.zeros(8),
                                    np.array([0, 0, 1, 1, 0, 0, 1, 1.0])]),
                 feature_names=["base", "ext"])
    scheme = equal_width_bins(y, 2)
    cats = categorize_features(ds, n_bins=2)
    exp = ce_expansion(ds, scheme, cats, "base", ["ext"])
    for dot in exp.series("base_ext"):
        assert dot.rescaled_ce == pytest.approx(0.0, abs=1e-12)


def test_code_ids_threshold_and_format(planted):
    ds, scheme = planted
    cats = categorize_features(ds, n_bins=4)
    exp = ce_expansion(ds, scheme, cats, "V1", ["V2"])
    none = assign_code_ids(exp, threshold=-1.0)
    assert none == []
    all_pure = assign_code_ids(exp, threshold=0.0)
    for cid in all_pure:
        assert cid.ce_at_leaf == 0.0
    some = assign_code_ids(exp, threshold=0.9, prefix=(("V9", 1),))
    assert len(some) >= len(all_pure)
    label = str(some[0])
    assert label.startswith("V9-1-V1-") and "-T" in label


def test_size_guard_warns():
    ds = planted_dataset(seed=3, n=120)
    scheme = equal_width_bins(ds.y[ds.delta == 1], 6)
    level, sub = subdivide(ds, categorize_features(ds), "V4")[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_mfs(ds, scheme, max_order=3)
        run_mfs(sub, scheme, max_order=3)
    messages = [str(w.message) for w in caught]
    assert all("unstable" in m for m in messages)
    assert any(m.startswith("whole sample: order-3") for m in messages)
    assert any(m.startswith(f"V4={level}: order-3") for m in messages)
