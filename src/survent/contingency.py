"""Contingency tables: plain cross-counts and weighted tables built from
redistribution weights.

Cells are real-valued, not integer, because redistribution spreads a
censored subject's unit mass fractionally over event-time columns.  Only
observed (composite) categories get rows; empty categories would carry zero
mass and contribute nothing to conditional entropy anyway.

:func:`_compact` maps integer codes to 0-based indices over their observed
values without sorting.  Every weighted cell comes from one kernel,
:func:`_mass_cells`: a ``bincount`` per time bin over the (k, n) mass rows
of :func:`binned_row_masses`, a collection's own read from
:func:`collection_masses`; plain tables bincount a row-major cell index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Sequence

import numpy as np

from .binning import BinningScheme, DegenerateSampleError, categorize
from .data import Dataset
from .redistribution import WeightMatrix, binned_row_masses, collection_masses


@dataclass(frozen=True)
class ContingencyTable:
    """Nonnegative real-valued cross-tabulation with labelled categories."""

    row_labels: tuple[Hashable, ...]
    col_labels: tuple[Hashable, ...]
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if cells.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("labels do not match cell dimensions")
        if np.any(cells < 0):
            raise ValueError("cells must be nonnegative")
        object.__setattr__(self, "cells", cells)
        cells.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.cells.sum())

    def row_sums(self) -> np.ndarray:
        return self.cells.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.cells.sum(axis=0)

    def transpose(self) -> "ContingencyTable":
        return ContingencyTable(self.col_labels, self.row_labels, self.cells.T)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["", *map(_label_str, self.col_labels)])
            for lab, row in zip(self.row_labels, self.cells):
                writer.writerow([_label_str(lab), *(repr(float(v)) for v in row)])


def _label_str(label: Hashable) -> str:
    if isinstance(label, tuple):
        return "_".join(str(x) for x in label)
    return str(label)


def _compact(codes) -> tuple[np.ndarray, np.ndarray]:
    """Observed values of integral codes, ascending, and each code's 0-based
    index among them: what ``np.unique(codes, return_inverse=True)`` gives.

    Counts over the code span and ranks the non-empty cells by a cumulative
    sum, which is O(n + span) with no sort.  Sparse codes, whose span exceeds
    their count, go through ``np.unique`` instead so memory stays O(n); both
    branches return identical arrays.  Raises ``ValueError`` for codes that
    are not integral.
    """
    raw = np.asarray(codes)
    if raw.ndim != 1:
        raise ValueError("category codes must be a 1-D vector")
    with np.errstate(invalid="ignore"):
        c = raw.astype(np.int64, copy=False)
    if raw.dtype.kind not in "ib" and not np.array_equal(c, raw):
        raise ValueError("category codes must be integral and fit in int64")
    if c.size == 0:
        return c, c
    lo = int(c.min())
    span = int(c.max()) - lo + 1
    if span > c.size:
        return np.unique(c, return_inverse=True)
    shifted = c - lo
    present = np.bincount(shifted, minlength=span) > 0
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present) + lo, rank[shifted]


def _fuse_codes(cat_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Fuse parallel ordinal vectors into 0-based composite codes.

    Each distinct tuple of codes becomes one composite code; only observed
    tuples get one, so the codes are ``0..L-1`` for ``L`` observed tuples.
    Codes must be integral (``ValueError`` otherwise).

    Vectors are fused left to right as mixed-radix codes: the composite so far
    times the next vector's observed level count, plus its level index,
    compacted after each step so the code never exceeds n squared.  Ascending
    mixed-radix order is the lexicographic order of the tuples, so the codes
    match the inverse of ``np.unique(np.stack(cat_vectors, 1), axis=0)``.
    """
    if len(cat_vectors) == 0:
        raise ValueError("need at least one category vector")
    arrs = [np.asarray(v) for v in cat_vectors]
    n = arrs[0].shape[0]
    if any(a.shape != (n,) for a in arrs):
        raise ValueError("category vectors must have equal lengths")
    _, composite = _compact(arrs[0])
    for v in arrs[1:]:
        values, index = _compact(v)
        _, composite = _compact(composite * values.size + index)
    return composite


def fuse_categories(cat_vectors: Sequence[np.ndarray]) -> tuple[np.ndarray, list[tuple]]:
    """Fuse parallel ordinal vectors into one composite categorical variable.

    Returns the 1-based codes of :func:`_fuse_codes` plus the tuple label of
    each composite level, in code order: the lexicographic order of the
    observed tuples, as ``np.unique(np.stack(cat_vectors, 1), axis=0)``
    lists them.
    """
    composite = _fuse_codes(cat_vectors)
    some_row = np.empty(composite.max() + 1 if composite.size else 0,
                        dtype=np.int64)
    some_row[composite] = np.arange(composite.size)
    levels = np.stack([np.asarray(v)[some_row].astype(np.int64)
                       for v in cat_vectors], axis=1)
    return composite + 1, [tuple(row) for row in levels.tolist()]


def table_plain(x_cats: np.ndarray, y_cats: np.ndarray) -> ContingencyTable:
    """Integer cross-counts of two aligned ordinal vectors, labelled by the
    observed codes."""
    x = np.asarray(x_cats)
    y = np.asarray(y_cats)
    if x.shape != y.shape:
        raise ValueError("category vectors must have equal lengths")
    ux, xi = _compact(x)
    uy, yi = _compact(y)
    cells = np.bincount(xi * uy.size + yi, minlength=ux.size * uy.size)
    return ContingencyTable(tuple(ux.tolist()), tuple(uy.tolist()),
                            cells.reshape(ux.size, uy.size))


def _mass_cells(index: np.ndarray, masses: np.ndarray, size: int) -> np.ndarray:
    """Cells (size, k): cell (r, b) sums ``masses[b, i]`` over the subjects
    ``i`` with ``index[i] == r``, in subject order; ``masses`` is (k, n)."""
    return np.stack([np.bincount(index, weights=m, minlength=size)
                     for m in masses], axis=1)


def table_from_binned(masses: np.ndarray, row_cats: np.ndarray,
                      row_labels: Sequence[Hashable] | None = None) -> ContingencyTable:
    """Weighted table from binned masses (k x n) and row codes.

    ``masses[b, i]`` is the redistributed mass of subject ``i`` in time bin
    ``b``, as returned by :func:`binned_row_masses`; rows are the observed
    codes, columns are labelled 1..k.
    """
    M = np.asarray(masses, dtype=float)
    cats = np.asarray(row_cats)
    if cats.shape[0] != M.shape[1]:
        raise ValueError("row_cats must align with the mass columns")
    uniq, inv = _compact(cats)
    cells = _mass_cells(inv, M, uniq.size)
    rl = tuple(row_labels) if row_labels is not None else tuple(uniq.tolist())
    return ContingencyTable(rl, tuple(range(1, M.shape[0] + 1)), cells)


def table_from_weights(W: WeightMatrix, row_cats: np.ndarray,
                       time_scheme: BinningScheme,
                       row_labels: Sequence[Hashable] | None = None) -> ContingencyTable:
    """Weighted table: categories (rows) by time bins (columns).

    ``row_cats`` must align with the weight-matrix rows.  The column axis is
    grouped by ``time_scheme``; cell (a, b) accumulates all weight that
    subjects of category ``a`` place on event times in bin ``b``.  The table
    total equals the number of rows (each row carries unit mass).

    Reference construction on a dense :class:`WeightMatrix`, kept as a test
    oracle; production tables use :func:`table_from_binned` on
    :func:`binned_row_masses`.
    """
    cats = np.asarray(row_cats)
    if cats.shape[0] != W.weights.shape[0]:
        raise ValueError("row_cats length must equal the weight-matrix row count")
    col_bin, _ = categorize(W.col_times, time_scheme)
    masses = np.stack([W.weights[:, col_bin == b].sum(axis=1)
                       for b in range(1, time_scheme.nbins + 1)])
    return table_from_binned(masses, cats, row_labels=row_labels)


def censor_cross_table(dataset: Dataset, time_scheme: BinningScheme
                       ) -> tuple[ContingencyTable, ContingencyTable, ContingencyTable]:
    """Summed censoring-vs-event-time table plus its two addends.

    The first addend distributes each censored subject's mass over the event
    times to its right (rows: censoring-time bins).  The second does the
    symmetric construction for event subjects over observed censoring times
    and is transposed so its rows are censoring-time bins as well.  Returns
    ``(summed, censored_part, event_part_transposed)``.

    Each addend is one :func:`_mass_cells` table of the rows censored under
    a status vector (the observed ``dataset.delta``, or its flip), indexed
    by their own time bin, on :func:`binned_row_masses` under that vector.
    This equals the cascade tables of :func:`build_cross_weight_matrix`
    without the O(n_c * n) matrices.  The observed addend reads
    :func:`collection_masses`; the flipped one builds its own.  A sample
    lacking either kind raises :class:`DegenerateSampleError`.
    """
    if dataset.n_u == 0 or dataset.n_c == 0:
        raise DegenerateSampleError("no censored records" if dataset.n_u
                                    else "no events")
    k = time_scheme.nbins
    labels = tuple(range(1, k + 1))
    own_bin, _ = categorize(dataset.y, time_scheme)

    def own_bin_grid(delta: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Masses of the rows censored under ``delta``, by their own bin."""
        keep = delta == 0
        return _mass_cells(own_bin[keep] - 1, M[:, keep], k)

    c_cells = own_bin_grid(dataset.delta,
                           collection_masses(dataset, time_scheme))
    flipped = 1 - dataset.delta
    flipped_masses, _ = binned_row_masses(dataset.y, flipped, time_scheme)
    t_cells = own_bin_grid(flipped, flipped_masses).T  # rows: censoring bins
    c_tab = ContingencyTable(labels, labels, c_cells)
    t_tab = ContingencyTable(labels, labels, t_cells)
    summed = ContingencyTable(labels, labels, c_cells + t_cells)
    return summed, c_tab, t_tab
