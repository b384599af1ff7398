"""Categorization of continuous measurements into ordinal bins.

Bins are left-closed/right-open with the final bin right-closed, so the
maximum in-range value is always assigned.  Out-of-range values clamp to the
nearest terminal bin and are tallied rather than rejected, because an
explicit scheme from the column config is applied unchanged to the whole
sample and to every sub-collection, whose values need not span it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .data import Dataset


class DegenerateRangeError(ValueError):
    """All values equal: no finite-width bins exist."""


class InfeasibleBinningError(ValueError):
    """Too few distinct uncensored times to place the requested edges."""


@dataclass(frozen=True)
class BinningScheme:
    """Strictly increasing edges defining ``len(edges) - 1`` ordinal bins.

    Bin ``j`` (1-based) covers ``[edges[j-1], edges[j])``; the last bin also
    includes its right edge.  Edges may use ``-inf``/``+inf`` sentinels.
    """

    edges: tuple[float, ...]
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 3:
            raise ValueError("need at least 3 edges (2 bins)")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", tuple(float(e) for e in edges))
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, edges.size)))
        if len(self.labels) != edges.size - 1:
            raise ValueError("one label per bin required")

    @property
    def nbins(self) -> int:
        return len(self.edges) - 1


def explicit_bins(edges: Sequence[float]) -> BinningScheme:
    """Scheme from user-supplied edges (e.g. hand-chosen time bins)."""
    return BinningScheme(edges=tuple(float(e) for e in edges))


def equal_width_bins(values: Sequence[float], k: int) -> BinningScheme:
    """k bins of equal width spanning [min(values), max(values)]."""
    if k < 2:
        raise ValueError("k must be at least 2")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("values must be nonempty")
    lo, hi = float(np.min(v)), float(np.max(v))
    if not lo < hi:
        raise DegenerateRangeError("all values equal; bin width would be zero")
    edges = np.linspace(lo, hi, k + 1)
    return BinningScheme(edges=tuple(edges))


def km_quantile_bins(dataset: "Dataset", k: int) -> BinningScheme:
    """Bins carrying as close to 1/k of the Kaplan-Meier mass as achievable.

    Interior edges are chosen among the observed uncensored times (each edge
    is the time right after the jump whose cumulative mass best matches the
    target quantile) and the outer edges are ``-inf``/``+inf`` sentinels.
    """
    from .redistribution import km_estimate

    if k < 2:
        raise ValueError("k must be at least 2")
    km = km_estimate(dataset)
    times = np.asarray(km.jump_times)
    masses = np.asarray(km.jump_sizes)
    if times.size < k:
        raise InfeasibleBinningError(
            f"{times.size} distinct uncensored times cannot support {k} bins"
        )
    cum = np.cumsum(masses)
    interior: list[int] = []  # index i -> edge at times[i + 1], bin ends after jump i
    prev = -1
    m = times.size
    for j in range(1, k):
        target = j / k
        lo = prev + 1
        hi = m - (k - j) - 1  # leave at least one jump per remaining bin
        if lo > hi:
            raise InfeasibleBinningError("not enough distinct uncensored times")
        window = cum[lo : hi + 1]
        i = lo + int(np.argmin(np.abs(window - target)))
        interior.append(i)
        prev = i
    edges = [-np.inf] + [float(times[i + 1]) for i in interior] + [np.inf]
    return BinningScheme(edges=tuple(edges))


def categorize(values: Sequence[float], scheme: BinningScheme) -> tuple[np.ndarray, int]:
    """Map values to 1-based bin codes; returns (codes, clamp tally).

    Total on finite reals and monotone.  Values below the first edge map to
    bin 1, values above the last edge to bin k; both are counted as clamps.
    A value equal to the last edge belongs to bin k without clamping.
    """
    v = np.asarray(values, dtype=float)
    edges = np.asarray(scheme.edges)
    raw = np.searchsorted(edges, v, side="right")
    codes = np.clip(raw, 1, scheme.nbins).astype(np.int64)
    clamped = int(np.count_nonzero(v < edges[0]) + np.count_nonzero(v > edges[-1]))
    return codes, clamped
