"""Simulation-calibrated diagnostic for the independence of event and
censoring times.

The summed censoring-vs-event table is read in both directions: each row
(censoring-time bin) profile's entropy is rescaled by the column-marginal
entropy, and symmetrically for columns.  A rescaled value near 1 says the
conditioning bin carries no information about the other axis.  For every
row/column a multinomial null (drawn from the opposing marginal) and an
alternative (drawn from the observed profile) are simulated; their overlap
and the observed statistic's tail position summarize the evidence.  The
verdict is a heuristic threshold call, not an asymptotic test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .binning import BinningScheme
from .contingency import ContingencyTable, censor_cross_table
from .data import Dataset
from .entropy import _entropies_of_rows, _entropy_of_counts


class DegenerateMarginalError(ValueError):
    """A marginal of the summed table has zero entropy: nothing to rescale
    the conditional entropies by."""


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov statistic sup |F_a - F_b|."""
    grid = np.concatenate((a, b))
    grid.sort()
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def _two_sided_p(null: np.ndarray, observed: float) -> float:
    lo = float(np.mean(null <= observed))
    hi = float(np.mean(null >= observed))
    return min(1.0, 2.0 * min(lo, hi))


@dataclass
class AxisTest:
    """Per-row (or per-column) simulation results for one table axis."""

    rescaled: np.ndarray
    totals: np.ndarray
    null_samples: list[np.ndarray | None]
    alt_samples: list[np.ndarray | None]
    p_values: np.ndarray
    min_error_sum: np.ndarray
    skipped: list[int] = field(default_factory=list)


@dataclass
class CensorTestResult:
    table: ContingencyTable
    censored_part: ContingencyTable | None
    event_part: ContingencyTable | None
    h_col_marginal: float
    h_row_marginal: float
    rows: AxisTest
    cols: AxisTest
    alpha: float
    verdict: str
    notes: list[str] = field(default_factory=list)

    @property
    def row_rescaled_ces(self) -> np.ndarray:
        return self.rows.rescaled

    @property
    def col_rescaled_ces(self) -> np.ndarray:
        return self.cols.rescaled

    def to_json_dict(self) -> dict:
        def axis(a: AxisTest) -> dict:
            return {
                "rescaled_ces": [float(v) for v in a.rescaled],
                "totals": [float(v) for v in a.totals],
                "p_values": [None if np.isnan(v) else float(v) for v in a.p_values],
                "min_type1_plus_type2": [
                    None if np.isnan(v) else float(v) for v in a.min_error_sum
                ],
                "skipped": a.skipped,
            }

        return {
            "h_col_marginal": self.h_col_marginal,
            "h_row_marginal": self.h_row_marginal,
            "rows": axis(self.rows),
            "cols": axis(self.cols),
            "alpha": self.alpha,
            "verdict": self.verdict,
            "notes": self.notes,
        }

    def write(self, outdir: str | Path) -> list[Path]:
        """Emit the table(s), samples and verdict under ``outdir``."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []

        def dump_samples(axis: AxisTest, stem: str) -> None:
            # the bytes csv.writer would emit: no field needs quoting
            path = outdir / f"{stem}_samples.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write("index,kind,value\r\n")
                for i, (nu, al) in enumerate(zip(axis.null_samples,
                                                 axis.alt_samples)):
                    for kind, sample in (("null", nu), ("alt", al)):
                        if sample is None:
                            continue
                        lead = f"{i + 1},{kind},"
                        fh.write(lead + ("\r\n" + lead).join(
                            map(repr, sample.tolist())) + "\r\n")
            written.append(path)

        self.table.to_csv(outdir / "summed_table.csv")
        written.append(outdir / "summed_table.csv")
        if self.censored_part is not None:
            self.censored_part.to_csv(outdir / "censored_part.csv")
            self.event_part.to_csv(outdir / "event_part.csv")
            written.extend([outdir / "censored_part.csv",
                            outdir / "event_part.csv"])
        dump_samples(self.rows, "row")
        dump_samples(self.cols, "col")
        with open(outdir / "censor_test.json", "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
        written.append(outdir / "censor_test.json")
        return written


def _axis_test(cells: np.ndarray, h_opposing: float, n_sim: int,
               rng: np.random.Generator) -> AxisTest:
    marg = cells.sum(axis=0)
    p_marg = marg / marg.sum()
    totals = cells.sum(axis=1)
    rescaled = _entropies_of_rows(cells) / h_opposing

    null_samples: list[np.ndarray | None] = []
    alt_samples: list[np.ndarray | None] = []
    p_values = np.full(cells.shape[0], np.nan)
    min_err = np.full(cells.shape[0], np.nan)
    skipped = []
    for i, row in enumerate(cells):
        size = int(np.floor(totals[i] + 0.5))  # half-up, not banker's
        if size <= 0 or totals[i] <= 0:
            skipped.append(i)
            null_samples.append(None)
            alt_samples.append(None)
            continue
        null_counts = rng.multinomial(size, p_marg, size=n_sim)
        alt_counts = rng.multinomial(size, row / totals[i], size=n_sim)
        null = _entropies_of_rows(null_counts) / h_opposing
        alt = _entropies_of_rows(alt_counts) / h_opposing
        null_samples.append(null)
        alt_samples.append(alt)
        p_values[i] = _two_sided_p(null, float(rescaled[i]))
        min_err[i] = 1.0 - _ks_distance(null, alt)
    return AxisTest(rescaled, totals, null_samples, alt_samples,
                    p_values, min_err, skipped)


def run_censor_test(dataset: Dataset | None = None,
                    time_scheme: BinningScheme | None = None,
                    *,
                    table: ContingencyTable | None = None,
                    n_sim: int = 10_000,
                    seed: int = 0,
                    alpha: float = 0.05,
                    masses: np.ndarray | None = None) -> CensorTestResult:
    """Run the censoring-independence diagnostic.

    Either give a dataset plus the time-bin scheme (the summed
    censoring-vs-event table is built by redistribution), or feed a
    prebuilt ``table`` directly.  ``masses`` is the dataset's (k, n)
    :func:`binned_row_masses` layout, passed on to
    :func:`censor_cross_table`.  Row totals are fractional after
    redistribution; multinomial draws use them rounded half-up.  Each
    row's and column's p-value is two-sided on its null sample.
    """
    notes: list[str] = []
    if table is not None:
        censored_part = event_part = None
    else:
        if dataset is None or time_scheme is None:
            raise ValueError("need either a table or a dataset with a time scheme")
        table, censored_part, event_part = censor_cross_table(
            dataset, time_scheme, masses=masses)

    h_col = _entropy_of_counts(table.col_sums())
    h_row = _entropy_of_counts(table.row_sums())
    if h_col <= 0 or h_row <= 0:
        raise DegenerateMarginalError(
            "degenerate marginal: cannot rescale conditional entropies")

    ss = np.random.SeedSequence(seed).spawn(2)
    rows = _axis_test(table.cells, h_col, n_sim, np.random.default_rng(ss[0]))
    cols = _axis_test(table.cells.T, h_row, n_sim, np.random.default_rng(ss[1]))
    for i in rows.skipped:
        notes.append(f"row {table.row_labels[i]} has zero mass; skipped")
    for j in cols.skipped:
        notes.append(f"column {table.col_labels[j]} has zero mass; skipped")

    valid_p = np.concatenate((rows.p_values[~np.isnan(rows.p_values)],
                              cols.p_values[~np.isnan(cols.p_values)]))
    if valid_p.size and valid_p.min() > alpha:
        verdict = "non-informative not rejected"
    else:
        verdict = "non-informative rejected"
    notes.append("verdict is a heuristic threshold call at alpha="
                 f"{alpha}; inspect the overlap summaries")
    return CensorTestResult(
        table=table,
        censored_part=censored_part,
        event_part=event_part,
        h_col_marginal=h_col,
        h_row_marginal=h_row,
        rows=rows,
        cols=cols,
        alpha=alpha,
        verdict=verdict,
        notes=notes,
    )
