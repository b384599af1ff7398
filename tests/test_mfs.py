"""Feature-set ranking, reliability nulls, subdivision, expansions."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survent import (
    AssociationRecord,
    Dataset,
    DegenerateRangeError,
    assign_code_ids,
    categorize,
    categorize_features,
    ce_expansion,
    conditional_entropy,
    conditional_mutual_information,
    equal_width_bins,
    explicit_bins,
    fuse_categories,
    mce_matrix,
    mutual_information,
    reliability_null,
    run_mfs,
    subdivide,
    table_from_binned,
    table_plain,
)
from survent.contingency import _fuse_codes
from survent.entropy import (
    _entropy_of_counts,
    ecological_effect,
    interacting_flag,
    sce_drop,
)
from survent.redistribution import binned_row_masses

from conftest import make_random_dataset, make_tied_dataset


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


def mfs_per_set_fusion(ds, scheme, cats, features):
    """Every order-1 to 3 record with each set's codes fused on their own by
    ``_fuse_codes``: the reference construction of :func:`run_mfs`."""
    masses, _ = binned_row_masses(ds.y, ds.delta, scheme)
    h = _entropy_of_counts(
        table_from_binned(masses, np.zeros(ds.n, np.int64)).cells[0])
    ces, drops, reports = {}, {}, {}
    for order in (1, 2, 3):
        records = []
        for fset in itertools.combinations(features, order):
            table = table_from_binned(
                masses, _fuse_codes([cats.column(f) for f in fset]))
            ce, _ = conditional_entropy(table)
            ces[fset], drops[fset] = ce, h - ce
            if order == 1:
                records.append(AssociationRecord(fset, ce, h - ce, h - ce))
                continue
            parts = list(itertools.combinations(fset, order - 1))
            best = max(parts, key=lambda p: drops[p])
            sce = sce_drop(h, ce, *(ces[p] for p in parts))
            minor = drops[tuple(f for f in fset if f not in best)]
            eco = h - ce - drops[best] - minor
            flag = eco > 1e-12
            records.append(AssociationRecord(
                fset, ce, h - ce, sce, ecological=eco, ecological_flag=flag,
                interacting=interacting_flag(sce, minor, flag)))
        records.sort(key=lambda r: (r.ce, r.features))
        reports[order] = records
    return h, reports


# explicit edges whose third and last levels stay empty on Uniform[0, 1)
SPARSE_EDGES = (0.0, 0.25, 0.5, 0.5 + 1e-9, 1.0, 2.0)
FEATURE_KINDS = ("continuous", "categorical", "constant", "explicit")


def fusion_case(n, seed, kinds, n_bins):
    """A sample whose features are continuous (``n_bins`` equal-width bins),
    categorical on non-contiguous raw values, constant, or binned on
    ``SPARSE_EDGES``; returns it with its feature schemes and time scheme."""
    ds = make_random_dataset(seed, n=n, n_features=len(kinds))
    rng = np.random.default_rng(seed)
    X = np.array(ds.X)
    raw = np.array([-7.0, 0.0, 3.0, 40.0, 1000.0])
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            X[:, j] = rng.choice(raw[:int(rng.integers(1, 6))], n)
        elif kind == "constant":
            X[:, j] = 2.5
    ds = Dataset(y=ds.y, delta=ds.delta, X=X,
                 feature_kinds=["categorical" if k == "categorical"
                                else "continuous" for k in kinds])
    schemes = {f"V{j + 1}": explicit_bins(SPARSE_EDGES)
               for j, kind in enumerate(kinds) if kind == "explicit"}
    return ds, schemes, equal_width_bins([ds.y.min(), ds.y.max() + 1], 4)


MIXED = ("continuous", "categorical", "constant", "explicit", "continuous")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 80), seed=st.integers(0, 2 ** 16),
       kinds=st.lists(st.sampled_from(FEATURE_KINDS), min_size=1,
                      max_size=4),
       n_bins=st.integers(2, 6), split=st.booleans())
@example(n=17, seed=1, kinds=MIXED, n_bins=4, split=False)
@example(n=300, seed=2, kinds=MIXED, n_bins=10, split=False)
@example(n=3000, seed=3, kinds=MIXED, n_bins=10, split=False)
@example(n=300, seed=4, kinds=("categorical", *MIXED), n_bins=4, split=True)
@example(n=3000, seed=5, kinds=("explicit", *MIXED), n_bins=4, split=True)
def test_run_mfs_matches_per_set_fusion(n, seed, kinds, n_bins, split):
    # pair codes straight from the category codes, and each pair compacted
    # once for all of its triples, rank exactly as per-set fusion does;
    # ``split`` runs the sub-collections of the first feature instead
    ds, schemes, scheme = fusion_case(n, seed, kinds, n_bins)
    cats = categorize_features(ds, n_bins=n_bins, schemes=schemes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty levels, sizes
        collections = [(ds, cats, cats.names)]
        if split:
            collections = [(sub, categorize_features(sub, n_bins=n_bins,
                                                     schemes=schemes),
                            cats.names[1:])
                           for _, sub in subdivide(ds, cats, cats.names[0])]
        for sub, sub_cats, names in collections:
            reports = run_mfs(sub, scheme, cats=sub_cats, max_order=3,
                              features=names)
            h, expected = mfs_per_set_fusion(sub, scheme, sub_cats, names)
            for order in (1, 2, 3):
                assert reports[order].h_response == h
                assert reports[order].records == expected[order]


@pytest.mark.parametrize("n, seed, kinds, n_bins", [
    (17, 1, MIXED, 4), (300, 2, MIXED, 10), (3000, 3, MIXED, 10),
    (300, 4, ("categorical", *MIXED), 4), (3000, 5, ("explicit", *MIXED), 4),
])
def test_pair_terms_match_plain_table_reference(n, seed, kinds, n_bins):
    # a pair's ecological term from its drops, and the association score
    # from joint entropies, against the plain-table definitions
    # I[A;B|Y] - I[A;B] and max(H[A|B]/H[A], H[B|A]/H[B]); the last
    # feature duplicates the first
    ds, schemes, scheme = fusion_case(n, seed, kinds, n_bins)
    ds = Dataset(y=ds.y, delta=ds.delta,
                 X=np.column_stack([ds.X, ds.X[:, 0]]),
                 feature_kinds=[*ds.feature_kinds, ds.feature_kinds[0]])
    if "V1" in schemes:
        schemes[f"V{len(kinds) + 1}"] = schemes["V1"]
    cats = categorize_features(ds, n_bins=n_bins, schemes=schemes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty levels, sizes
        reports = run_mfs(ds, scheme, cats=cats, max_order=2)
    masses, _ = binned_row_masses(ds.y, ds.delta, scheme)
    singles = {f: table_from_binned(masses, cats.column(f))
               for f in cats.names}
    drops = {r.features[0]: r.ce_drop for r in reports[1].records}
    ents = {f: _entropy_of_counts(np.bincount(cats.column(f))[1:])
            for f in cats.names}
    mce = mce_matrix(cats)
    order = []
    for (i, a), (j, b) in itertools.combinations(enumerate(cats.names), 2):
        pair = table_from_binned(
            masses, _fuse_codes([cats.column(a), cats.column(b)]))
        plain = table_plain(cats.column(a), cats.column(b))
        eco, flag = ecological_effect(
            conditional_mutual_information(singles[a], singles[b], pair),
            mutual_information(plain))
        rec = reports[2].record_for((a, b))
        assert abs(rec.ecological - eco) <= 1e-12
        assert rec.ecological_flag == flag
        assert rec.interacting == interacting_flag(
            rec.sce_drop, min(drops[a], drops[b]), flag)
        order.append((conditional_entropy(pair)[0], (a, b)))
        score = 1.0
        if ents[a] > 0 and ents[b] > 0:
            score = max(conditional_entropy(plain.transpose())[0] / ents[a],
                        conditional_entropy(plain)[0] / ents[b])
        assert abs(mce.matrix[i, j] - score) <= 1e-12
        assert mce.matrix[j, i] == mce.matrix[i, j]
        edge = (a, b) in [e[:2] for e in mce.edges]
        assert edge == (score < mce.threshold)
    assert [r.features for r in reports[2].records] == [
        f for _, f in sorted(order)]


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


def null_per_replicate(ds, scheme, n_rep, n_bins, seed):
    """The null built one table per replicate: the reference construction."""
    B, _ = binned_row_masses(ds.y, ds.delta, scheme)
    out = []
    for stream in np.random.SeedSequence(seed).spawn(n_rep):
        noise = np.random.default_rng(stream).uniform(0.0, 1.0, ds.n)
        codes, _ = categorize(noise, equal_width_bins(noise, n_bins))
        ce, _ = conditional_entropy(table_from_binned(B, codes))
        out.append(ce)
    return np.array(out)


def null_case(n: int):
    if n == 17:
        return tiny_degenerate_subcollection(n_features=3)
    ds = make_random_dataset(n, n=n, n_features=3)
    return ds, equal_width_bins(ds.y[ds.delta == 1], 4)


class QuarterRng:
    """``np.random.default_rng`` with its uniform draws rounded to quarters,
    so the noise ties at its maximum and lands on bin edges."""

    make = staticmethod(np.random.default_rng)

    def __init__(self, seed):
        self.rng = self.make(seed)

    def uniform(self, low, high, size):
        return np.round(self.rng.uniform(low, high, size) * 4) / 4


def anchored_subcollections(ds, anchor_set):
    """The whole collection for an empty ``anchor_set``, else every
    sub-collection cut by the joint 2-bin categories of its features."""
    if not anchor_set:
        return [ds]
    cats = categorize_features(ds, n_bins=2)
    codes, _ = fuse_categories([cats.column(f) for f in anchor_set])
    return [ds.subset(codes == c) for c in np.unique(codes)]


@pytest.mark.parametrize("n_rep", [1, 7, 200])
@pytest.mark.parametrize("anchor_set", [(), ("V2",), ("V1", "V2", "V3")],
                         ids=["no-anchor", "anchor1", "anchor3"])
@pytest.mark.parametrize("n, n_bins", [
    (n, n_bins) for n in (17, 300, 3000, "tied-max") for n_bins in (4, 10, 300)
    if (n, n_bins) != (3000, 300)])
def test_reliability_null_matches_per_replicate_tables(n, n_bins, anchor_set,
                                                       n_rep, monkeypatch):
    # n_bins=300 counts edges in a 2-byte accumulator (its oracle takes
    # seconds at n=3000); "tied-max" draws quarter-rounded noise on a
    # sample with tied times at its maximum.  An anchored case runs the null
    # on each sub-collection its features cut, with the sub-collection's own
    # masses on the collection's time scheme, as the CLI's --subdivide does;
    # a sub-collection whose noise cannot be binned raises in both.
    if n == "tied-max":
        ds = make_tied_dataset(5, 300)
        scheme = equal_width_bins(ds.y, 4)
        monkeypatch.setattr(np.random, "default_rng", QuarterRng)
    else:
        ds, scheme = null_case(n)
    for sub in anchored_subcollections(ds, anchor_set):
        try:
            expected = null_per_replicate(sub, scheme, n_rep, n_bins,
                                          seed=n_rep)
        except DegenerateRangeError:
            with pytest.raises(DegenerateRangeError):
                reliability_null(sub, scheme, n_rep=n_rep, n_bins=n_bins,
                                 seed=n_rep)
            continue
        null = reliability_null(sub, scheme, n_rep=n_rep, n_bins=n_bins,
                                seed=n_rep)
        assert null.ces.shape == (n_rep,)
        np.testing.assert_allclose(null.ces, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, k", [(300, 150), (3000, 15)])
def test_reliability_null_prefix_is_independent_of_blocks(n, k):
    # the first k replicates do not depend on how many follow them
    ds, scheme = null_case(n)
    full = reliability_null(ds, scheme, n_rep=200, seed=4)
    head = reliability_null(ds, scheme, n_rep=k, seed=4)
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


@pytest.mark.parametrize("n", [22, 23, 26])
def test_mce_constant_feature_exactly_one_where_entropy_rounds(n):
    """At these n a constant feature's plug-in entropy used to come out an
    ulp off zero, which slipped past the constant-feature guard."""
    ds = Dataset(y=np.arange(1.0, n + 1), delta=np.ones(n, dtype=int),
                 X=np.column_stack([np.ones(n), np.linspace(0, 1, n)]),
                 feature_names=["const", "v"])
    res = mce_matrix(categorize_features(ds))
    assert res.matrix[0, 1] == res.matrix[1, 0] == 1.0


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
