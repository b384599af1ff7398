"""Major-factor selection over feature sets of order 1 to 3.

For every feature set, the response's conditional entropy is evaluated on
the weighted contingency table, together with the uncertainty-reduction
bookkeeping: the plain drop, the successive drop against the best sub-set,
and (for sets of two or more) the ecological difference that decides
whether members can act concurrently.  Reliability of an observed
conditional entropy is judged against nulls built from synthetic
uniform-noise features pushed through the identical pipeline.

Pairwise association between covariates themselves is summarized by a
symmetric mutual-conditional-entropy score,
``max(H[A|B]/H[A], H[B|A]/H[B])`` on the unweighted counts (0 for
duplicated features, near 1 for independent ones).  This definition is a
convention of this library; see the README note.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .binning import BinningScheme, DegenerateRangeError, categorize, equal_width_bins
from .contingency import (_compact, _mass_cells, fuse_categories,
                          table_from_binned)
from .data import Dataset
from .entropy import (
    _entropies_of_rows,
    _entropy_of_counts,
    conditional_entropy,
    ecological_effect,
    interacting_flag,
    sce_drop,
)
from .redistribution import binned_row_masses


@dataclass(frozen=True)
class CategorizedFeatures:
    """Per-feature ordinal codes (1-based) aligned to a dataset.

    Every code of feature ``f`` lies in ``1..len(levels[f])``; levels may be
    empty (explicit bins that no value reaches).  :func:`run_mfs` and
    :func:`mce_matrix` rely on this to fuse codes as mixed-radix numbers
    without compacting them first.
    """

    names: tuple[str, ...]
    codes: np.ndarray  # n x K, int64
    levels: Mapping[str, tuple]
    clamps: Mapping[str, int]  # values clamped into a terminal bin, if any

    def column(self, name: str) -> np.ndarray:
        return self.codes[:, self.names.index(name)]


def categorize_features(dataset: Dataset, n_bins: int = 4,
                        schemes: Mapping[str, BinningScheme] | None = None
                        ) -> CategorizedFeatures:
    """Categorize every covariate of a dataset.

    Continuous features get ``n_bins`` equal-width bins over their observed
    range unless an explicit scheme is supplied; categorical features map
    their sorted distinct values to codes 1..m.  A constant feature
    collapses to a single category rather than erroring, so that
    sub-collection analyses can reuse global feature lists.
    """
    schemes = dict(schemes or {})
    codes = np.zeros((dataset.n, len(dataset.feature_names)), dtype=np.int64)
    levels: dict[str, tuple] = {}
    clamps: dict[str, int] = {}
    for j, name in enumerate(dataset.feature_names):
        col = dataset.X[:, j]
        if dataset.feature_kinds[j] == "categorical" and name not in schemes:
            uniq, inv = np.unique(col, return_inverse=True)
            codes[:, j] = inv + 1
            levels[name] = tuple(range(1, uniq.size + 1))
            continue
        scheme = schemes.get(name)
        if scheme is None:
            try:
                scheme = equal_width_bins(col, n_bins)
            except DegenerateRangeError:
                codes[:, j] = 1
                levels[name] = (1,)
                continue
        codes[:, j], clamped = categorize(col, scheme)
        levels[name] = tuple(range(1, scheme.nbins + 1))
        if clamped:
            clamps[name] = clamped
    return CategorizedFeatures(tuple(dataset.feature_names), codes, levels,
                               clamps)


@dataclass
class AssociationRecord:
    """One ranked feature set with its entropy bookkeeping."""

    features: tuple[str, ...]
    ce: float
    ce_drop: float
    sce_drop: float
    ecological: float | None = None
    ecological_flag: bool | None = None
    interacting: bool | None = None
    reliability_p: float | None = None

    @property
    def label(self) -> str:
        return "_".join(self.features)


@dataclass
class MFSReport:
    """Ranked records for one feature-set order, ascending by CE."""

    order: int
    records: list[AssociationRecord]
    h_response: float
    dataset_label: str
    n: int
    n_u: int

    COLUMNS = ("features", "ce", "ce_drop", "sce_drop", "ecological",
               "ecological_flag", "interacting", "reliability_p")

    def record_for(self, features: Sequence[str]) -> AssociationRecord:
        key = tuple(sorted(features))
        for rec in self.records:
            if tuple(sorted(rec.features)) == key:
                return rec
        raise KeyError(f"no record for feature set {features!r}")

    def to_rows(self) -> list[dict]:
        return [dict(zip(self.COLUMNS, (
                    rec.label, rec.ce, rec.ce_drop, rec.sce_drop,
                    rec.ecological, rec.ecological_flag, rec.interacting,
                    rec.reliability_p)))
                for rec in self.records]

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "dataset": self.dataset_label,
            "n": self.n,
            "n_events": self.n_u,
            "h_response": self.h_response,
            "records": self.to_rows(),
        }


def _response_entropy(masses: np.ndarray) -> float:
    """Entropy of the response margin: the one-row table of a collection's
    (k, n) :func:`binned_row_masses` layout."""
    return _entropy_of_counts(
        _mass_cells(np.zeros(masses.shape[1], np.int64), masses, 1)[0])


def run_mfs(dataset: Dataset, time_scheme: BinningScheme,
            cats: CategorizedFeatures | None = None,
            max_order: int = 2,
            features: Sequence[str] | None = None,
            n_bins: int = 4,
            masses: np.ndarray | None = None) -> dict[int, MFSReport]:
    """Evaluate all feature sets up to ``max_order`` and rank them.

    Orders above 3 are rejected: with composite categories multiplying per
    added feature, plug-in conditional entropies on realistic event counts
    lose meaning beyond triplets.  Records come back sorted ascending by
    conditional entropy, ties broken by feature names, so the ordering is
    deterministic.  An order whose largest composite category count exceeds
    a tenth of the events raises a ``UserWarning`` naming the dataset's
    ``subcollection`` tag (or "whole sample"); a set is called
    interacting by :func:`interacting_flag` with its default factor 3.

    ``masses`` is the collection's (k, n) :func:`binned_row_masses` layout
    under ``time_scheme``, built here when omitted; the response margin is
    its one-row table.  Feature sets are streamed, and fused on the
    1-based category codes of ``cats``: a pair (a, b) is the mixed-radix
    code ``code_a * (len(levels_b) + 1) + code_b``, which its table
    compacts once.  ``itertools.combinations`` varies the third member
    fastest, so each (a, b) of a triple is compacted once and serves as the
    high digit of all its triples (a, b, c).  Ascending mixed-radix codes
    are lexicographic in the member codes, so rows, cells and entropies are
    those of fusing each set on its own.  Every set of order >= 2 splits
    into its best sub-set (largest drop) and the added member; its
    ecological term is ``drop - drop[best] - drop[added]``, the interaction
    information of :func:`ecological_effect`, so it needs no table beyond
    the set's own.  No table is kept, only one compacted pair code and the
    per-set entropies, so memory is O(n * k) whatever the number of sets.
    """
    if not 1 <= max_order <= 3:
        raise ValueError("max_order must be 1, 2 or 3")
    if cats is None:
        cats = categorize_features(dataset, n_bins=n_bins)
    names = list(features) if features is not None else list(cats.names)
    if masses is None:
        masses, _ = binned_row_masses(dataset.y, dataset.delta, time_scheme)
    h_response = _response_entropy(masses)

    code_of = {f: cats.column(f) for f in names}
    radix = {f: len(cats.levels[f]) + 1 for f in names}
    ces: dict[tuple[str, ...], float] = {}
    drops: dict[tuple[str, ...], float] = {}
    reports: dict[int, MFSReport] = {}
    for order in range(1, max_order + 1):
        records = []
        worst = 0
        prefix: tuple[str, ...] = ()
        for fset in itertools.combinations(names, order):
            if order == 1:
                fused = code_of[fset[0]]
            elif order == 2:
                a, b = fset
                fused = code_of[a] * radix[b] + code_of[b]
            else:
                a, b, c = fset
                if fset[:2] != prefix:  # combinations() varies c fastest
                    prefix = fset[:2]
                    _, pair = _compact(code_of[a] * radix[b] + code_of[b])
                fused = pair * radix[c] + code_of[c]
            table = table_from_binned(masses, fused)
            worst = max(worst, table.cells.shape[0])
            ce, _ = conditional_entropy(table)
            ces[fset] = ce
            drop = h_response - ce
            drops[fset] = drop
            if order == 1:
                records.append(AssociationRecord(fset, ce, drop, drop))
                continue
            parts = list(itertools.combinations(fset, order - 1))
            best = max(parts, key=lambda p: drops[p])
            added = next(f for f in fset if f not in best)
            sce = sce_drop(h_response, ce, *(ces[p] for p in parts))
            # ecological difference over the split (best part, added member)
            eco, eco_flag = ecological_effect(drop - drops[best],
                                              drops[(added,)])
            records.append(AssociationRecord(
                fset, ce, drop, sce, ecological=eco, ecological_flag=eco_flag,
                interacting=interacting_flag(sce, drops[(added,)], eco_flag),
            ))

        if dataset.n_u < 10 * worst:
            warnings.warn(
                f"{dataset.meta.get('subcollection') or 'whole sample'}: "
                f"order-{order} composite categories reach {worst} levels "
                f"with only {dataset.n_u} events; plug-in conditional "
                "entropies may be unstable",
                stacklevel=2,
            )
        records.sort(key=lambda r: (r.ce, r.features))
        reports[order] = MFSReport(order, records, h_response,
                                   dataset.meta.get("subcollection", ""),
                                   dataset.n, dataset.n_u)
    return reports


@dataclass
class ReliabilityNull:
    """Empirical null of conditional entropies from synthetic noise features."""

    ces: np.ndarray
    n_rep: int
    n_bins: int

    def p_value(self, ce_observed: float) -> float:
        """Fraction of null CEs at or below the observed one (small means
        the observed reduction is unlikely under pure noise)."""
        return float(np.mean(self.ces <= ce_observed))


def reliability_null(dataset: Dataset, time_scheme: BinningScheme,
                     n_rep: int = 200, n_bins: int = 4, seed: int = 0,
                     masses: np.ndarray | None = None) -> ReliabilityNull:
    """Null CE distribution from ``n_rep`` synthetic uniform features.

    Each replicate draws a fresh Uniform[0, 1] feature, bins it like a real
    covariate (``n_bins`` equal-width bins over its own range), and
    evaluates the conditional entropy on the same weight structure as the
    observed analysis.  Replicate ``i`` owns the RNG substream spawned at
    index ``i``, so results do not depend on execution order.  ``masses``
    is the collection's (k, n) :func:`binned_row_masses` layout, built here
    when omitted.

    Replicates run one at a time.  Each one's (``n_bins``, k) table is one
    :func:`_mass_cells` call on the shared mass rows, and all CEs come from
    the tables' row entropies at the end; empty noise bins add exact zeros.
    Memory is O(n + n_rep * n_bins * k).  Edges and codes are those of
    :func:`equal_width_bins` and :func:`categorize`: only the maximum
    reaches the last edge, which :func:`categorize` clips to bin ``n_bins``
    anyway, so a code is one plus the count of inner edges at or below the
    draw, counted in the narrowest unsigned integer that holds ``n_bins``.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    if masses is None:
        masses, _ = binned_row_masses(dataset.y, dataset.delta, time_scheme)
    count = np.empty(dataset.n, dtype=np.min_scalar_type(n_bins))
    cells = np.empty((n_rep, n_bins, masses.shape[0]))
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_rep)):
        x = np.random.default_rng(stream).uniform(0.0, 1.0, dataset.n)
        lo, hi = x.min(), x.max()
        if not lo < hi:
            raise DegenerateRangeError("all values equal; bin width would be zero")
        edges = np.linspace(lo, hi, n_bins + 1)
        if not (edges[1:] > edges[:-1]).all():
            raise ValueError("edges must be strictly increasing")
        count.fill(0)  # categorize() minus 1
        for e in edges[1:-1]:
            count += e <= x
        cells[i] = _mass_cells(count, masses, n_bins)
    cells = cells.reshape(n_rep * n_bins, -1)
    mass = cells.sum(axis=1)
    rep = np.repeat(np.arange(n_rep), n_bins)
    ces = (np.bincount(rep, weights=mass * _entropies_of_rows(cells),
                       minlength=n_rep)
           / np.bincount(rep, weights=mass, minlength=n_rep))
    return ReliabilityNull(ces, n_rep=n_rep, n_bins=n_bins)


def subdivide(dataset: Dataset, cats: CategorizedFeatures,
              feature: str) -> list[tuple[Hashable, Dataset]]:
    """Partition a dataset by one feature's categories.

    Empty categories are omitted with a warning.  Sub-datasets carry a
    ``subcollection`` meta tag and their observed statuses; the
    trailing-censored promotion applies to each one's own largest time
    whenever its masses or product-limit estimate are built.
    """
    column = cats.column(feature)
    out = []
    for level in cats.levels[feature]:
        mask = column == level
        if not mask.any():
            warnings.warn(f"{feature}={level} has no records; omitted",
                          stacklevel=2)
            continue
        sub = dataset.subset(mask, meta_update={
            "subcollection": f"{feature}={level}"})
        out.append((level, sub))
    return out


@dataclass
class MCEResult:
    names: tuple[str, ...]
    matrix: np.ndarray
    threshold: float

    @property
    def edges(self) -> list[tuple[str, str, float]]:
        """Feature pairs whose score falls below the linkage threshold."""
        out = []
        for i, j in itertools.combinations(range(len(self.names)), 2):
            if self.matrix[i, j] < self.threshold:
                out.append((self.names[i], self.names[j],
                            float(self.matrix[i, j])))
        return out

    def to_rows(self) -> list[dict]:
        """One row per feature, scores to six decimals; the first column
        (named "") holds the feature."""
        return [{"": name, **{other: f"{v:.6f}"
                              for other, v in zip(self.names, row)}}
                for name, row in zip(self.names, self.matrix)]


def mce_matrix(cats: CategorizedFeatures,
               features: Sequence[str] | None = None,
               threshold: float = 0.97) -> MCEResult:
    """Symmetric covariate-association matrix on unweighted counts.

    Score of a pair is ``max(H[A|B]/H[A], H[B|A]/H[B])``: 0 when either
    determines the other, near 1 when independent.  Pairs involving a
    zero-entropy (constant) feature are undefined and reported as 1.  Both
    conditional entropies come from the joint entropy, ``H[A|B] = H[A,B] -
    H[B]``, counted over the pair's compacted mixed-radix code, so no
    ``levels_a x levels_b`` table is built and memory stays O(n).
    """
    names = tuple(features) if features is not None else cats.names
    m = len(names)
    out = np.zeros((m, m))
    ents = {}
    for f in names:
        ents[f] = _entropy_of_counts(
            np.bincount(cats.column(f))[1:].astype(float))
    for i, j in itertools.combinations(range(m), 2):
        a, b = names[i], names[j]
        if ents[a] <= 0 or ents[b] <= 0:
            out[i, j] = out[j, i] = 1.0
            continue
        _, joint = _compact(cats.column(a) * (len(cats.levels[b]) + 1)
                            + cats.column(b))
        h_ab = _entropy_of_counts(np.bincount(joint))
        out[i, j] = out[j, i] = max((h_ab - ents[b]) / ents[a],
                                    (h_ab - ents[a]) / ents[b])
    return MCEResult(names, out, threshold)


@dataclass(frozen=True)
class ExpansionDot:
    """One category's dot in a conditional-entropy expansion plot."""

    series: str
    category: tuple[int, ...]
    rescaled_ce: float
    raw_ce: float
    mass: float
    dominant_response: int


@dataclass
class CEExpansion:
    base: str
    extensions: tuple[tuple[str, ...], ...]
    h_response: float
    dots: list[ExpansionDot]

    COLUMNS = ("series", "category", "rescaled_ce", "raw_ce", "mass",
               "dominant_response")

    def series(self, name: str) -> list[ExpansionDot]:
        return [d for d in self.dots if d.series == name]

    def to_rows(self) -> list[dict]:
        return [dict(zip(self.COLUMNS, (
                    d.series, "_".join(map(str, d.category)), d.rescaled_ce,
                    d.raw_ce, d.mass, d.dominant_response)))
                for d in self.dots]


def ce_expansion(dataset: Dataset, time_scheme: BinningScheme,
                 cats: CategorizedFeatures, base: str,
                 extensions: Sequence[str | Sequence[str]] = (),
                 masses: np.ndarray | None = None) -> CEExpansion:
    """Per-category rescaled conditional entropies for a base feature and
    its refinements, within one (sub-)collection.

    Every category of ``base``, and every observed composite category of
    ``(base, extension...)``, contributes a dot: the row's entropy divided
    by the response's marginal entropy in this collection, together with
    the row mass and the dominant response category.  ``masses`` is the
    collection's (k, n) :func:`binned_row_masses` layout, built here when
    omitted; the response margin is its one-row table.
    """
    if masses is None:
        masses, _ = binned_row_masses(dataset.y, dataset.delta, time_scheme)
    h_resp = _response_entropy(masses)
    if h_resp <= 0:
        raise ValueError("response has zero entropy in this collection")
    dots: list[ExpansionDot] = []
    norm_exts = tuple(
        (ext,) if isinstance(ext, str) else tuple(ext) for ext in extensions
    )

    def add_series(series_feats: tuple[str, ...]) -> None:
        codes, labels = fuse_categories([cats.column(f) for f in series_feats])
        table = table_from_binned(masses, codes, row_labels=labels)
        _, per_row = conditional_entropy(table)
        row_mass = table.row_sums()
        name = "_".join(series_feats)
        for i, lab in enumerate(table.row_labels):
            if row_mass[i] <= 0:
                continue
            dominant = int(np.argmax(table.cells[i])) + 1
            dots.append(ExpansionDot(
                series=name,
                category=tuple(lab),
                rescaled_ce=float(per_row[i] / h_resp),
                raw_ce=float(per_row[i]),
                mass=float(row_mass[i]),
                dominant_response=dominant,
            ))

    add_series((base,))
    for ext in norm_exts:
        add_series((base, *ext))
    return CEExpansion(base, norm_exts, h_resp, dots)


@dataclass(frozen=True)
class CodeID:
    """A deterministic label: feature-category path plus response category."""

    path: tuple[tuple[str, int], ...]
    response_category: int
    ce_at_leaf: float
    mass: float

    def __str__(self) -> str:
        steps = "-".join(f"{f}-{c}" for f, c in self.path)
        return f"{steps}-T{self.response_category}"


def assign_code_ids(expansion: CEExpansion, threshold: float = 0.05,
                    prefix: Sequence[tuple[str, int]] = ()) -> list[CodeID]:
    """Issue code-IDs for every expansion cell at or below the CE threshold.

    ``threshold`` applies to the rescaled conditional entropy shown in the
    expansion (0 keeps only exactly-pure cells).  ``prefix`` prepends the
    sub-collection's own (feature, category) steps.
    """
    out = []
    for dot in expansion.dots:
        if dot.rescaled_ce <= threshold:
            feats = dot.series.split("_")
            path = tuple(prefix) + tuple(zip(feats, dot.category))
            out.append(CodeID(path, dot.dominant_response,
                              dot.rescaled_ce, dot.mass))
    return out
