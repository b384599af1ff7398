"""Data model and CSV ingestion for right-censored time-to-event samples.

A sample is a collection of subjects, each carrying an observed time ``y``
(the minimum of the event time and the censoring time), a status flag
``delta`` (1 = event observed, 0 = right-censored) and a fixed-length
covariate vector.  Everything downstream consumes the immutable
:class:`Dataset` built here.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .binning import explicit_bins


class ConfigError(ValueError):
    """Column-role configuration does not match the input file."""


class ParseError(ValueError):
    """A cell could not be parsed; carries the 1-based data row index."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class MissingValueError(ValueError):
    """Selected columns contain empty cells; carries the offending rows."""

    def __init__(self, rows: Sequence[int]):
        preview = ", ".join(str(r) for r in rows[:20])
        more = "" if len(rows) <= 20 else f" (+{len(rows) - 20} more)"
        super().__init__(f"missing values in data rows: {preview}{more}")
        self.rows = list(rows)


@dataclass(frozen=True)
class ColumnConfig:
    """Maps CSV columns to roles, with optional explicit bin edges.

    ``bins`` maps a feature name to an explicit, strictly increasing list of
    bin edges used instead of an automatic scheme. ``kinds`` optionally tags
    features as ``"continuous"`` or ``"categorical"``.  Repeated feature
    names, edges :func:`explicit_bins` rejects, a ``bins`` key that is
    neither the time column nor a listed feature, and a ``kinds`` key that
    is not a listed feature or whose value is neither kind raise
    :class:`ConfigError`.
    """

    time: str
    status: str
    features: tuple[str, ...]
    id: str | None = None
    kinds: Mapping[str, str] | None = None
    bins: Mapping[str, Sequence[float]] | None = None
    version: int = 1

    @classmethod
    def from_json(cls, path: str | Path) -> "ColumnConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ColumnConfig":
        version = int(raw.get("version", 1))
        if version != 1:
            raise ConfigError(f"unsupported config version {version}")
        for key in ("time", "status", "features"):
            if key not in raw:
                raise ConfigError(f"config is missing required key {key!r}")
        features = tuple(str(f) for f in raw["features"])
        if len(set(features)) != len(features):
            raise ConfigError("feature names must be unique")
        time = str(raw["time"])
        bins = {k: list(map(float, v)) for k, v in (raw.get("bins") or {}).items()}
        for name in bins:
            if name != time and name not in features:
                raise ConfigError(f"bins entry {name!r} is neither the time "
                                  "column nor a listed feature")
        try:
            for edges in bins.values():
                explicit_bins(edges)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        kinds = dict(raw.get("kinds") or {})
        for name, kind in kinds.items():
            if name not in features:
                raise ConfigError(f"kinds entry {name!r} is not a listed feature")
            if kind not in ("continuous", "categorical"):
                raise ConfigError(f"kind of {name!r} must be 'continuous' "
                                  f"or 'categorical', not {kind!r}")
        return cls(
            time=time,
            status=str(raw["status"]),
            features=features,
            id=raw.get("id"),
            kinds=kinds or None,
            bins=bins or None,
            version=version,
        )

    def to_dict(self) -> dict:
        out: dict = {
            "version": self.version,
            "time": self.time,
            "status": self.status,
            "features": list(self.features),
        }
        if self.id is not None:
            out["id"] = self.id
        if self.kinds:
            out["kinds"] = dict(self.kinds)
        if self.bins:
            out["bins"] = {k: list(v) for k, v in self.bins.items()}
        return out


class Dataset:
    """Immutable columnar sample of survival records.

    Parameters
    ----------
    ids : sequence of str
        Subject identifiers; autogenerated row numbers when omitted.
    y : array of float
        Observed times, nonnegative and finite.
    delta : array of int
        1 for an observed event, 0 for a right-censored subject.
    X : 2-D array, shape (n, n_features)
        Covariate matrix, finite (may be empty with 0 columns).
    feature_names, feature_kinds
        Column labels and per-feature "continuous"/"categorical" tags.
    hidden : mapping of name -> array
        Extra per-subject columns that are not features (used by the
        simulator to carry the true event and censoring times).
    meta : dict
        Free-form provenance, e.g. the source file or sub-collection tag.
    """

    def __init__(
        self,
        y: Sequence[float],
        delta: Sequence[int],
        X: np.ndarray | Sequence[Sequence[float]] | None = None,
        feature_names: Sequence[str] | None = None,
        ids: Sequence[str] | None = None,
        feature_kinds: Sequence[str] | None = None,
        hidden: Mapping[str, np.ndarray] | None = None,
        meta: Mapping | None = None,
    ):
        self.y = np.asarray(y, dtype=float)
        self.delta = np.asarray(delta, dtype=np.int8)
        n = self.y.shape[0]
        if self.y.ndim != 1 or self.delta.shape != (n,):
            raise ValueError("y and delta must be 1-D and of equal length")
        if not np.all(np.isfinite(self.y)) or np.any(self.y < 0):
            raise ValueError("observed times must be finite and nonnegative")
        if not np.isin(self.delta, (0, 1)).all():
            raise ValueError("status must be 0 (censored) or 1 (event)")
        if X is None:
            X = np.empty((n, 0))
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] != n:
            raise ValueError("covariate matrix must be 2-D with one row per record")
        if not np.isfinite(self.X).all():
            raise ValueError("covariates must be finite")
        if feature_names is None:
            feature_names = [f"V{j + 1}" for j in range(self.X.shape[1])]
        self.feature_names = tuple(str(f) for f in feature_names)
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError("feature_names length must match covariate columns")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if feature_kinds is None:
            feature_kinds = ["continuous"] * self.X.shape[1]
        self.feature_kinds = tuple(feature_kinds)
        if len(self.feature_kinds) != self.X.shape[1]:
            raise ValueError("feature_kinds length must match covariate columns")
        self.ids = (
            tuple(str(i) for i in ids)
            if ids is not None
            else tuple(str(i) for i in range(n))
        )
        if len(self.ids) != n:
            raise ValueError("ids length must match record count")
        if len(set(self.ids)) != n:
            raise ValueError("record ids must be unique")
        self.hidden = {k: np.asarray(v) for k, v in (hidden or {}).items()}
        for k, v in self.hidden.items():
            if v.shape[0] != n:
                raise ValueError(f"hidden column {k!r} has wrong length")
        self.meta = dict(meta or {})
        self.y.setflags(write=False)
        self.delta.setflags(write=False)
        self.X.setflags(write=False)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_u(self) -> int:
        return int(self.delta.sum())

    @property
    def n_c(self) -> int:
        return self.n - self.n_u

    def feature(self, name: str) -> np.ndarray:
        try:
            j = self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None
        return self.X[:, j]

    def subset(self, mask: np.ndarray, meta_update: Mapping | None = None) -> "Dataset":
        mask = np.asarray(mask)
        if mask.dtype != bool:
            idx = mask
        else:
            idx = np.flatnonzero(mask)
        return Dataset(
            y=self.y[idx],
            delta=self.delta[idx],
            X=self.X[idx],
            feature_names=self.feature_names,
            ids=[self.ids[i] for i in np.atleast_1d(idx)],
            feature_kinds=self.feature_kinds,
            hidden={k: v[idx] for k, v in self.hidden.items()},
            meta={**self.meta, **(meta_update or {})},
        )

    def to_csv(self, path: str | Path) -> None:
        """Write ``id, time, status, features...``, floats as their shortest
        ``repr``; each column is formatted once and the rows zipped."""
        columns = [self.ids, map(repr, self.y.tolist()), self.delta.tolist(),
                   *(map(repr, col.tolist()) for col in self.X.T)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "time", "status", *self.feature_names])
            writer.writerows(zip(*columns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Dataset(n={self.n}, events={self.n_u}, censored={self.n_c}, "
                f"features={len(self.feature_names)})")


def _parse_cell(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"non-numeric value {text!r} in column {column!r} at data row {row}",
            row=row,
        ) from None
    if not np.isfinite(value):
        raise ParseError(
            f"non-finite value {text!r} in column {column!r} at data row {row}",
            row=row)
    return value


# rows read, transposed and parsed at once by ingest_csv: bounds its memory
_CHUNK_ROWS = 256


def _parse_column(cells: tuple[str, ...], column: str, first_row: int,
                  status: bool = False) -> np.ndarray:
    """Float values of one column of a chunk whose first row is
    ``first_row``.  Raises the :class:`ParseError` of the column's first bad
    cell (unparsable or not finite); with ``status``, a parsed value other
    than 0 or 1 is bad too."""
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        pass  # the scan below finds the cell
    else:
        if np.isfinite(values).all() and (
                not status or np.all((values == 0) | (values == 1))):
            return values
    for row, text in enumerate(cells, start=first_row):
        value = _parse_cell(text, column, row)
        if status and value not in (0.0, 1.0):
            raise ParseError(
                f"status must be 0 or 1, got {value!r} at data row {row}",
                row=row)
    raise AssertionError("unreachable: the column has a bad cell")


def ingest_csv(path: str | Path, config: ColumnConfig | Mapping | str | Path) -> Dataset:
    """Read a CSV file (RFC-4180, UTF-8, header row required) into a Dataset.

    ``config`` names the time, status and feature columns (a
    :class:`ColumnConfig`, a dict, or a path to a JSON config file).  Rows
    with missing values in any selected column are rejected, listing the
    offending rows; incomplete subjects must be resolved upstream.  A
    selected column that the header names twice is a :class:`ConfigError`.

    The file is streamed in chunks of 256 rows, each transposed into its
    columns, so memory is O(chunk + n * columns) rather than a string per
    cell.  Each numeric column of a chunk is parsed at once with
    ``float``; the ids are held as numpy strings until the end.  Errors are
    those of a row-by-row read: a :class:`MissingValueError` listing every
    row with an empty or absent selected cell (short rows included) wins
    over any :class:`ParseError`, which names the first bad row and, within
    it, the first bad cell in the order time, status (unparsable or not
    finite, then not 0 or 1), features; a feature value must be finite too.
    """
    if isinstance(config, (str, Path)):
        config = ColumnConfig.from_json(config)
    elif not isinstance(config, ColumnConfig):
        config = ColumnConfig.from_dict(config)

    fields = [config.time, config.status, *config.features]
    wanted = fields + ([config.id] if config.id is not None else [])
    missing: list[int] = []
    error: ParseError | None = None
    # per chunk: the (fields, rows) values and the ids
    blocks = [np.empty((len(fields), 0))]
    id_blocks = [np.array([], dtype=StringDType())]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: no header row") from None
        colidx: dict[str, int] = {name: i for i, name in enumerate(header)}
        for name in wanted:
            if name not in colidx:
                raise ConfigError(f"column {name!r} not found in {path}")
            if header.count(name) > 1:
                raise ConfigError(f"column {name!r} appears more than once "
                                  f"in {path}")
        cols = [colidx[name] for name in wanted]
        width = max(cols) + 1
        first_row = 1
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            if min(map(len, chunk)) < width:  # absent cells count as empty
                chunk = [row + [""] * (width - len(row)) for row in chunk]
            columns = list(zip(*chunk))
            selected = [columns[i] for i in cols]
            gaps = sorted({first_row + r for col in selected
                           if not all(map(str.strip, col))
                           for r, text in enumerate(col) if not text.strip()})
            if gaps:
                missing += gaps
            elif not missing and error is None:
                parsed, errors = [], []
                for j, (name, col) in enumerate(zip(fields, selected)):
                    try:
                        parsed.append(_parse_column(col, name, first_row,
                                                    status=j == 1))
                    except ParseError as exc:
                        errors.append(exc)
                if errors:  # the first bad row; at a tie, the first field
                    error = min(errors, key=lambda exc: exc.row)
                else:
                    blocks.append(np.stack(parsed))
                    if config.id is not None:
                        id_blocks.append(np.array(selected[-1],
                                                  dtype=StringDType()))
            first_row += len(chunk)
    if missing:
        raise MissingValueError(missing)
    if error is not None:
        raise error

    values = np.concatenate(blocks, axis=1)
    del blocks  # the arrays below are copies, so values is dropped too
    y, delta = values[0].copy(), values[1].astype(np.int8)
    X = values[2:].T.copy()
    del values
    ids = np.concatenate(id_blocks).tolist() if config.id is not None else None
    kinds = None
    if config.kinds:
        kinds = [config.kinds.get(f, "continuous") for f in config.features]
    return Dataset(
        y=y,
        delta=delta,
        X=X,
        feature_names=config.features,
        ids=ids,
        feature_kinds=kinds,
        meta={"source": str(path)},
    )
