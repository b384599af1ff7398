"""Shannon-entropy machinery on contingency tables.

All entropies are in nats.  Estimates are plug-in (no bias correction), with
0 * log 0 = 0 by continuity; zero-mass rows contribute nothing to weighted
averages.  Mutual information is clamped at zero against floating-point
rounding, with the raw value available on request.
"""

from __future__ import annotations

import math

import numpy as np

from .contingency import ContingencyTable


def _entropy_of_counts(v: np.ndarray) -> float:
    """Entropy of the normalized vector, for nonnegative weights; exactly 0
    for a vector with at most one positive cell."""
    pos = v[v > 0]
    if pos.size < 2:
        return 0.0
    total = v.sum()
    return float(math.log(total) - (pos * np.log(pos)).sum() / total)


def _entropies_of_rows(counts: np.ndarray) -> np.ndarray:
    """Entropy of each row of a nonnegative count matrix; rows with at most
    one positive cell (zero-mass rows among them) get exactly 0."""
    totals = counts.sum(axis=1)
    positive = counts > 0
    safe = np.where(positive, counts, 1.0)
    clogc = (counts * np.log(safe)).sum(axis=1)
    out = np.zeros(counts.shape[0])
    mixed = np.count_nonzero(positive, axis=1) > 1
    out[mixed] = np.log(totals[mixed]) - clogc[mixed] / totals[mixed]
    return out


def marginal_entropies(table: ContingencyTable) -> tuple[float, float]:
    """(row-marginal, column-marginal) entropies of a table."""
    return (_entropy_of_counts(table.row_sums()),
            _entropy_of_counts(table.col_sums()))


def conditional_entropy(table: ContingencyTable) -> tuple[float, np.ndarray]:
    """H[col variable | row variable] and the per-row entropies.

    The weighted average, over rows, of each row profile's entropy; weights
    are the row masses.  Zero-mass rows contribute zero and get a per-row
    entropy of 0.
    """
    cells = table.cells
    total = cells.sum()
    if total <= 0:
        raise ValueError("all-zero table")
    row_masses = cells.sum(axis=1)
    per_row = _entropies_of_rows(cells)
    ce = float((row_masses / total) @ per_row)
    return ce, per_row


def mutual_information(table: ContingencyTable, *, clamp: bool = True) -> float:
    """I = H_row + H_col - H_joint, clamped at zero unless ``clamp=False``."""
    cells = table.cells
    if cells.sum() <= 0:
        raise ValueError("all-zero table")
    h_row, h_col = marginal_entropies(table)
    h_joint = _entropy_of_counts(cells.ravel())
    raw = h_row + h_col - h_joint
    return max(raw, 0.0) if clamp else raw


def conditional_mutual_information(table_a: ContingencyTable,
                                   table_b: ContingencyTable,
                                   table_ab: ContingencyTable) -> float:
    """I[A;B | Y] from the three Y-column tables A-vs-Y, B-vs-Y, (A,B)-vs-Y.

    Computed as H[A|Y] + H[B|Y] - H[(A,B)|Y], where each conditional
    entropy conditions on the shared column variable (so the tables are
    transposed before the row-wise weighted average).
    """
    ha_y, _ = conditional_entropy(table_a.transpose())
    hb_y, _ = conditional_entropy(table_b.transpose())
    hab_y, _ = conditional_entropy(table_ab.transpose())
    return ha_y + hb_y - hab_y


def sce_drop(h_response: float, ce_joint: float, *ce_parts: float) -> float:
    """Successive drop: joint uncertainty reduction minus the best
    reduction already achieved by any of the given sub-sets.  May be <= 0.
    """
    if not ce_parts:
        raise ValueError("need at least one sub-set conditional entropy")
    best_part = max(h_response - ce for ce in ce_parts)
    return (h_response - ce_joint) - best_part


def ecological_effect(i_ab_given_y: float, i_ab: float,
                      atol: float = 1e-12) -> tuple[float, bool]:
    """Difference I[A;B|Y] - I[A;B] and whether it is positive.

    A positive difference means the two feature sets become more dependent
    once the response is known, i.e. they can act concurrently.  The
    difference is the interaction information, symmetric in its three
    variables: I[A;B|Y] - I[A;B] = I[A;Y|B] - I[A;Y] = I[(A,B);Y] - I[A;Y]
    - I[B;Y].  :func:`run_mfs` passes the last form as
    ``(drop[AB] - drop[A], drop[B])``, the drops being I[.;Y], with A the
    set's best sub-set and B its added member.
    """
    diff = i_ab_given_y - i_ab
    return diff, bool(diff > atol)


def interacting_flag(sce: float, ce_drop_minor: float, ecological: bool,
                     factor: float = 3.0) -> bool:
    """Interacting-effect call: the successive drop must reach ``factor``
    times the added member's individual drop, and the ecological condition
    must hold."""
    if not ecological:
        return False
    return sce >= factor * ce_drop_minor

