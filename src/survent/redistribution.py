"""Kaplan-Meier estimation and redistribute-to-the-right weight matrices.

A censored subject's unit of empirical mass is pushed to the observations on
its right: the mass splits equally over every later point (censored or not),
and the sweep proceeds left to right so that mass parked on a later censored
point is forwarded again.  After the sweep, all mass sits on event times, and
the column totals reproduce the Kaplan-Meier jump sizes.

Two constructions are provided:

* :func:`binned_row_masses` is the production kernel.  It takes the time
  and status arrays and uses the product-limit closed form (Efron 1967): a
  censored row's weight on event time ``t_j > y_i`` is the Kaplan-Meier
  jump at ``t_j`` divided by the survival just after ``y_i``.  Its (k, n)
  per-bin mass rows are the one mass layout every weighted table is built
  from.
* :func:`build_weight_matrix` and :func:`build_cross_weight_matrix`
  materialize the dense subject-by-event-time matrix via the literal
  cascade.  They are the paper's reference construction, kept for
  exposition and as a test oracle; no production path calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import BinningScheme, categorize
from .data import Dataset


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous survival step function with initial value 1.

    ``values[i]`` is the survival probability just after ``jump_times[i]``.
    """

    jump_times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.jump_times)
        v = np.asarray(self.values)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("jump_times and values must be 1-D and aligned")
        if t.size and not np.all(np.diff(t) > 0):
            raise ValueError("jump times must be strictly increasing")
        if np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise ValueError("survival values must lie in [0, 1]")
        if t.size and np.any(np.diff(v) > 1e-12):
            raise ValueError("survival values must be nonincreasing")

    def __call__(self, t: float | np.ndarray) -> np.ndarray | float:
        """Survival probability S(t) = Pr[T > t]."""
        idx = np.searchsorted(self.jump_times, np.asarray(t, dtype=float),
                              side="right")
        vals = np.concatenate(([1.0], self.values))
        out = vals[idx]
        return float(out) if np.isscalar(t) else out

    @property
    def jump_sizes(self) -> np.ndarray:
        vals = np.concatenate(([1.0], self.values))
        return -np.diff(vals)


def _prepared(y: np.ndarray, delta: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Promote the trailing censored points, order the rows (ascending y,
    events before censorings at ties, then input order), and take the
    product-limit survival just after each: ``(order, ys, deltas, surv)``.
    The only copy of the promotion rule: nothing lies right of the last
    record to take its mass, and a promoted record sorts ahead of censorings
    tied with it, so every censored record at the largest time counts as an
    event, in ``deltas`` only; the caller's ``delta`` is never changed."""
    y, delta = np.asarray(y, dtype=float), np.asarray(delta)
    if y.size == 0:
        raise ValueError("empty dataset")
    if delta.shape != y.shape or not np.isin(delta, (0, 1)).all():
        raise ValueError("need one status, 0 or 1, per observed time")
    promoted = delta.astype(np.int8)
    promoted[y == y.max()] = 1
    order = np.lexsort((np.arange(y.size), 1 - promoted, y))
    ys, deltas = y[order], promoted[order]
    at_risk = ys.size - np.arange(ys.size)
    factors = np.where(deltas == 1, 1.0 - 1.0 / at_risk, 1.0)
    return order, ys, deltas, np.cumprod(factors)


def km_estimate(dataset: Dataset) -> StepFunction:
    """Product-limit survival estimate over the ordered sample.

    The largest-censored promotion is applied first, so the estimate always
    reaches zero at the last jump.  Tied event times aggregate into a single
    jump.
    """
    _, ys, deltas, surv = _prepared(dataset.y, dataset.delta)
    unc = np.flatnonzero(deltas == 1)
    t_unc = ys[unc]
    s_unc = surv[unc]
    # collapse tied event times to the last (smallest) survival value
    keep = np.ones(t_unc.size, dtype=bool)
    keep[:-1] = t_unc[1:] != t_unc[:-1]
    return StepFunction(tuple(t_unc[keep]), tuple(s_unc[keep]))


@dataclass(frozen=True)
class WeightMatrix:
    """Dense redistribution weights: subjects (rows) by event times (cols).

    Rows are ordered by ascending observed time; columns are the ordered
    event times (only event times index columns).  ``row_delta`` is the
    status used in the construction (after promotion), ``row_delta_original``
    the dataset's own, unpromoted ``delta``.

    Output of the reference construction (:func:`build_weight_matrix`);
    production code works on :func:`binned_row_masses` instead.
    """

    row_ids: tuple[str, ...]
    row_y: np.ndarray
    row_delta: np.ndarray
    row_delta_original: np.ndarray
    col_times: np.ndarray
    weights: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def validate(self, atol: float = 1e-12) -> None:
        """Check the structural invariants; used by the test-suite."""
        w = self.weights
        if np.any(w < -atol):
            raise AssertionError("negative weight")
        if not np.allclose(w.sum(axis=1), 1.0, atol=atol):
            raise AssertionError("row sums deviate from 1")
        for i in range(w.shape[0]):
            if self.row_delta[i] == 1:
                j = int(np.flatnonzero(w[i] > 0)[0])
                if not (abs(w[i, j] - 1.0) <= atol and self.col_times[j] == self.row_y[i]):
                    raise AssertionError("event row is not a unit point mass")
            else:
                bad = (self.col_times <= self.row_y[i]) & (w[i] > atol)
                if bad.any():
                    raise AssertionError("censored row has mass at or left of its time")


def build_weight_matrix(dataset: Dataset) -> WeightMatrix:
    """Dense weight matrix via the left-to-right redistribution cascade.

    The paper's reference construction, O(n_c * n) memory: it serves
    exposition and tests as the oracle for :func:`binned_row_masses`, and
    no production path calls it.
    """
    order, ys, deltas, _ = _prepared(dataset.y, dataset.delta)
    n = ys.size
    cens_pos = np.flatnonzero(deltas == 0)
    unc_pos = np.flatnonzero(deltas == 1)

    # position-space mass for all censored rows at once: start with a unit
    # at each censored position, then sweep censored positions left to right,
    # splitting whatever sits there equally over everything strictly right.
    mass = np.zeros((cens_pos.size, n))
    mass[np.arange(cens_pos.size), cens_pos] = 1.0
    for q in cens_pos:
        share = mass[:, q] / (n - q - 1)  # q < n-1: the last point is never censored here
        mass[:, q + 1 :] += share[:, None]
        mass[:, q] = 0.0

    weights = np.zeros((n, unc_pos.size))
    weights[cens_pos] = mass[:, unc_pos]
    weights[unc_pos, np.arange(unc_pos.size)] = 1.0

    return WeightMatrix(
        row_ids=tuple(dataset.ids[i] for i in order),
        row_y=ys.copy(),
        row_delta=deltas.copy(),
        row_delta_original=dataset.delta[order],
        col_times=ys[unc_pos].copy(),
        weights=weights,
    )


def binned_row_masses(y: np.ndarray, delta: np.ndarray,
                      scheme: BinningScheme) -> tuple[np.ndarray, np.ndarray]:
    """Redistributed mass per time bin of every subject, in input order.

    ``delta`` holds a 0/1 status per time in ``y`` (``ValueError``
    otherwise); the trailing-censored promotion is applied to a copy.
    Returns ``(M, col_times)``: ``M`` is C-contiguous of shape (nbins, n),
    built one bin row at a time, and ``M[b, i]`` is subject ``i``'s mass in
    bin ``b``, so each column sums to 1.  A censored subject's mass in a bin
    is the Kaplan-Meier jump mass of the bin's event times right of ``y_i``
    over the survival just after ``y_i``; no subject-by-event-time matrix
    is built.
    """
    order, ys, deltas, surv = _prepared(y, delta)
    surv_before = np.concatenate(([1.0], surv[:-1]))
    unc_pos = np.flatnonzero(deltas == 1)
    col_times = ys[unc_pos]
    col_jumps = (surv_before - surv)[unc_pos]
    # cumulative jump mass from each column to the right
    tail = np.concatenate((np.cumsum(col_jumps[::-1])[::-1], [0.0]))
    k = scheme.nbins
    col_bin0 = categorize(col_times, scheme)[0] - 1
    # columns of bin b are bounds[b]:bounds[b + 1] (columns sorted by time)
    bounds = np.searchsorted(col_bin0, np.arange(k + 1))

    M = np.zeros((k, ys.size))
    cens = deltas == 0
    first_right = np.searchsorted(col_times, ys[cens], side="right")
    denom = np.where(surv > 0, surv, 1.0)[cens]
    for b in range(k):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        if lo == hi:
            continue
        a = np.clip(first_right, lo, hi)
        M[b, cens] = (tail[a] - tail[hi]) / denom
    M[col_bin0, unc_pos] = 1.0

    out = np.empty_like(M)
    out[:, order] = M
    return out, col_times


def build_cross_weight_matrix(dataset: Dataset, direction: str) -> WeightMatrix:
    """Cross weight matrices between censoring times and event times.

    The cascade counterpart of :func:`contingency.censor_cross_table`,
    which builds the same tables from :func:`binned_row_masses`; kept as
    the reference construction and its test oracle.

    ``direction="C-rows"``: rows are the observed censoring times, columns
    the event times; these are exactly the censored rows of the full weight
    matrix.  ``direction="T-rows"``: the symmetric construction with the
    roles of the two ensembles swapped, built by flipping every status flag
    and running the same cascade, then keeping the rows that were events in
    the original data.
    """
    if dataset.n_u == 0 or dataset.n_c == 0:
        raise ValueError("cross matrices need both censored and uncensored records")
    if direction == "C-rows":
        full = build_weight_matrix(dataset)
    elif direction == "T-rows":
        full = build_weight_matrix(
            Dataset(y=dataset.y, delta=1 - dataset.delta, ids=dataset.ids))
    else:
        raise ValueError("direction must be 'C-rows' or 'T-rows'")
    keep = np.flatnonzero(full.row_delta_original == 0)
    return WeightMatrix(
        row_ids=tuple(full.row_ids[i] for i in keep),
        row_y=full.row_y[keep],
        row_delta=full.row_delta[keep],
        row_delta_original=full.row_delta_original[keep],
        col_times=full.col_times,
        weights=full.weights[keep],
    )
