"""Batch command-line front end.

Subcommands: ``simulate``, ``analyze``, ``censor-test``, ``mfs``,
``subdivide``, ``cox``.  ``analyze`` runs the bodies of ``mfs``, ``cox``,
``censor-test`` (into ``censor_test/``) and, with ``--subdivide``,
``subdivide``, plus the covariate-association matrix; each of those files is
byte-identical to the one the command of its own writes from the same input
and options.  A sub-collection is the run seen through
:meth:`Manifest.part` and goes through the same stage bodies as the whole
sample, so it is categorised exactly as the whole sample is (the config's
explicit edges where given, else ``--feature-bins`` equal-width bins over its
own range) and binned on the whole sample's time bins.

``analyze`` skips a stage that its sample cannot support, with a
``UserWarning`` that names the collection and the reason, and still writes
its manifest: the Cox fit on a sample with no events, and the censor test on
a sample with no events, no censored records or a degenerate (zero-entropy)
marginal.  The ``cox`` and ``censor-test`` commands exit 1 on such a sample
before writing anything.

Every run writes ``manifest.json`` next to its outputs: command, argv,
version, seed, the sha256 of every input and output, timings, and under
``config`` the parsed ``options``, the column config (``columns``) and the
response-time edges (``time_edges``) when the command reads an input, and
under ``clamps`` each categorised collection's per-feature count of values
clamped into a terminal bin.
Identical invocations produce byte-identical outputs apart from the
manifest timestamps.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The last covers an unreadable or invalid config (repeated feature names,
bin edges that are not strictly increasing, a ``bins`` entry that names
neither the time column nor a listed feature, and a ``kinds`` entry that
names no listed feature or a kind other than ``continuous`` and
``categorical`` included), an unreadable input, a feature named by
``--subdivide``, ``--expand`` or ``--features`` that the config does not
list, a feature that ``--features`` names twice, ``analyze --expand``
without ``--subdivide``, ``--time-bins`` or ``--feature-bins`` below 2,
``--n-sim`` below 1, a negative ``--reliability``, and invalid
``simulate`` settings; all of them are found before any output is
written.  Runtime errors are found that early only when they stop the run
before its first write (a sample whose times are all equal has no time
bins, say); one raised by a later stage leaves the files written before
it, with no manifest.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
import time
import warnings
from functools import cached_property
from pathlib import Path
from typing import Sequence

from . import __version__
from .binning import BinningScheme, equal_width_bins, explicit_bins, km_quantile_bins
from .censor_test import DegenerateMarginalError, run_censor_test
from .coxph import fit as cox_fit
from .data import ColumnConfig, ConfigError, Dataset, ingest_csv
from .mfs import (
    CategorizedFeatures,
    CEExpansion,
    _response_entropy,
    categorize_features,
    ce_expansion,
    mce_matrix,
    reliability_null,
    run_mfs,
    subdivide,
)
from .redistribution import collection_masses
from .simgen import SimConfig, generate, write_dataset_csv


class UsageError(Exception):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    """One invocation: its inputs, bins, categories, outputs and manifest.

    The column config is read, and every feature the options name is
    checked against it, when the run starts.  The dataset, the response-time
    scheme and the collection's categories are built once, on first use;
    every stage reads its mass rows from :func:`collection_masses`.  A run
    is one collection, :attr:`name` with its candidate :attr:`features`
    (``--features``, else all).  :meth:`part` is the run seen through a
    sub-collection: a shallow copy sharing the record and the outputs, with
    its own dataset, name, features, outdir and categories, and the whole
    sample's time scheme.  Every stage body takes either.  Each output is
    recorded as it is written (:meth:`file`, :meth:`write_rows`,
    :meth:`write_json`, or ``written +=`` the paths a library writer
    returns); :meth:`write` hashes them into ``manifest.json``.
    """

    name = "whole sample"

    def __init__(self, args: argparse.Namespace, argv: list[str]):
        self.args = args
        self.started = time.time()
        self.written: list[Path] = []
        self.record: dict = {
            "command": args.command,
            "argv": list(argv),
            "version": __version__,
            "seed": args.seed,
            "config": {},
            "inputs": {},
            "outputs": {},
        }
        opts = vars(args)
        self.features: list[str] | None = opts.get("features")
        for option, least in (("time_bins", 2), ("feature_bins", 2),
                              ("n_sim", 1), ("reliability", 0)):
            if opts.get(option, least) < least:
                raise UsageError(f"--{option.replace('_', '-')} must be at "
                                 f"least {least}")
        if opts.get("expand") and not opts.get("subdivide"):
            raise UsageError("--expand needs --subdivide")
        if self.features and len(set(self.features)) < len(self.features):
            raise UsageError("--features names a feature more than once")
        if "input" in opts:
            base, extensions = opts.get("expand") or (None, [])
            named = [opts.get("subdivide"), base, *sum(extensions, []),
                     *(opts.get("features") or [])]
            for name in named:
                if name is not None and name not in self.config.features:
                    raise UsageError(f"unknown feature {name!r}")

    @cached_property
    def config(self) -> ColumnConfig:
        try:
            config = ColumnConfig.from_json(self.args.config)
        except (OSError, ValueError) as exc:  # JSON errors are ValueErrors
            raise ConfigError(
                f"cannot read config {self.args.config}: {exc}") from None
        self.add_input(Path(self.args.config))
        return config

    @cached_property
    def dataset(self) -> Dataset:
        try:
            dataset = ingest_csv(self.args.input, self.config)
        except OSError as exc:
            raise UsageError(f"cannot read input: {exc}") from None
        self.add_input(Path(self.args.input))
        return dataset

    @cached_property
    def scheme(self) -> BinningScheme:
        """Response-time bins: explicit edges from the config win; otherwise
        equal-width bins over the full observed range (so censored-only tail
        bins exist, as in hand-chosen clinical schemes) or product-limit
        quantile bins."""
        bins = self.config.bins or {}
        if self.config.time in bins:
            return explicit_bins(bins[self.config.time])
        if self.args.time_binning == "km":
            return km_quantile_bins(self.dataset, self.args.time_bins)
        return equal_width_bins(self.dataset.y, self.args.time_bins)

    @cached_property
    def cats(self) -> CategorizedFeatures:
        """Categories from the config's explicit edges where given, else
        ``--feature-bins`` equal-width bins over the collection's own range;
        the clamp tallies are recorded under :attr:`name`."""
        schemes = {name: explicit_bins(edges)
                   for name, edges in (self.config.bins or {}).items()
                   if name != self.config.time}
        cats = categorize_features(self.dataset, n_bins=self.args.feature_bins,
                                   schemes=schemes)
        self.record.setdefault("clamps", {})[self.name] = dict(cats.clamps)
        return cats

    def part(self, dataset: Dataset, name: str,
             features: list[str] | None) -> Manifest:
        """The run on the sub-collection ``dataset``, under ``outdir / name``."""
        part = copy.copy(self)
        vars(part).pop("cats", None)
        vars(part).update(dataset=dataset, name=name, features=features,
                          outdir=self.outdir / name, scheme=self.scheme)
        return part

    @cached_property
    def outdir(self) -> Path:
        opts = vars(self.args)
        out = Path(opts["outdir"]) if "outdir" in opts else Path(opts["out"]).parent
        out.mkdir(parents=True, exist_ok=True)
        return out

    def file(self, name: str | Path) -> Path:
        """Record, and return, the path of an output under the outdir."""
        path = self.outdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        self.written.append(path)
        return path

    def write_rows(self, name: str | Path, rows: list[dict],
                   fieldnames: Sequence[str]) -> None:
        """Write a report's rows under its fixed columns; an empty report
        is a header-only file."""
        with open(self.file(name), "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)

    def write_json(self, name: str | Path, payload: dict) -> None:
        with open(self.file(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    def add_input(self, path: Path) -> None:
        self.record["inputs"][str(path)] = _sha256(path)

    def add_outputs(self, paths) -> None:
        for p in paths:
            self.record["outputs"][str(p)] = _sha256(Path(p))

    def write(self) -> None:
        """Hash the outputs and write ``manifest.json`` beside them."""
        config = self.record["config"]
        config["options"] = {k: v for k, v in vars(self.args).items()
                             if k != "command"}
        if "config" in vars(self):
            config["columns"] = self.config.to_dict()
        if "scheme" in vars(self):
            config["time_edges"] = list(self.scheme.edges)
        self.add_outputs(self.written)
        self.record["started"] = self.started
        self.record["finished"] = time.time()
        self.record["duration_s"] = self.record["finished"] - self.started
        with open(self.outdir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(self.record, fh, indent=2)


def cmd_simulate(run: Manifest) -> str:
    args = run.args
    try:
        config = SimConfig(n=args.n, censor_target=args.censor_rate,
                           seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"invalid simulation settings: {exc}") from None
    dataset = generate(config)
    out = run.outdir / Path(args.out).name
    run.written += write_dataset_csv(dataset, out)
    return f"wrote {out} ({dataset.n} rows, {dataset.n_c} censored)"


def cmd_analyze(run: Manifest) -> None:
    cmd_mfs(run)
    if not run.args.no_cox:
        if run.dataset.n_u:
            cmd_cox(run)
        else:
            warnings.warn(f"{run.name}: no events; Cox fit skipped",
                          stacklevel=2)
    if run.dataset.n_c and run.dataset.n_u:
        try:
            cmd_censor_test(run, Path("censor_test"))
        except DegenerateMarginalError:
            warnings.warn(f"{run.name}: degenerate marginal; censor test "
                          "skipped", stacklevel=2)
    else:
        reason = "no censored records" if run.dataset.n_u else "no events"
        warnings.warn(f"{run.name}: {reason}; censor test skipped",
                      stacklevel=2)
    mce = mce_matrix(run.cats)
    run.write_rows("mce_matrix.csv", mce.to_rows(), ["", *mce.names])
    run.write_rows("mce_edges.csv",
                   [{"a": a, "b": b, "mce": repr(m)} for a, b, m in mce.edges],
                   fieldnames=["a", "b", "mce"])
    if run.args.subdivide:
        cmd_subdivide(run)


def cmd_mfs(run: Manifest) -> None:
    """Ranked feature sets (and the reliability null with
    ``--reliability``) of the run's collection, the whole sample or a
    :meth:`Manifest.part`.  A collection of fewer than 2 records has no
    noise range: its null is header-only."""
    args = run.args
    reports = run_mfs(run.dataset, run.scheme, cats=run.cats,
                      max_order=args.max_order, features=run.features)
    if args.reliability > 0:
        ces = []
        if run.dataset.n < 2:
            warnings.warn(f"{run.name}: fewer than 2 records; "
                          "reliability null skipped", stacklevel=2)
        else:
            null = reliability_null(run.dataset, run.scheme,
                                    n_rep=args.reliability,
                                    n_bins=args.feature_bins, seed=args.seed)
            for rec in reports[1].records:
                rec.reliability_p = null.p_value(rec.ce)
            ces = null.ces
        run.write_rows("reliability_null.csv",
                       [{"replicate": i + 1, "ce": repr(float(v))}
                        for i, v in enumerate(ces)], ["replicate", "ce"])
    for order, report in reports.items():
        run.write_rows(f"mfs_order{order}.csv", report.to_rows(),
                       report.COLUMNS)
        run.write_json(f"mfs_order{order}.json", report.to_json_dict())


def cmd_subdivide(run: Manifest) -> None:
    rest = [f for f in run.dataset.feature_names if f != run.args.subdivide]
    for _, sub in subdivide(run.dataset, run.cats, run.args.subdivide):
        part = run.part(sub, sub.meta["subcollection"], rest)
        cmd_mfs(part)
        if run.args.expand:
            rows = []
            if _response_entropy(collection_masses(sub, part.scheme)) <= 0:
                warnings.warn(f"{part.name}: response has zero entropy; "
                              "ce_expansion skipped", stacklevel=2)
            else:
                rows = ce_expansion(sub, part.scheme, part.cats,
                                    *run.args.expand).to_rows()
            part.write_rows("ce_expansion.csv", rows, CEExpansion.COLUMNS)


def cmd_censor_test(run: Manifest, where: Path = Path()) -> str:
    result = run_censor_test(run.dataset, run.scheme, n_sim=run.args.n_sim,
                             seed=run.args.seed)
    run.written += result.write(run.outdir / where)
    return result.verdict


def cmd_cox(run: Manifest) -> str:
    """Write ``cox.csv`` and ``cox.json``; warn on stderr if the fit did not
    converge."""
    fitres = cox_fit(run.dataset, features=run.features)
    rows = fitres.summary_rows()
    run.write_rows("cox.csv", rows, fitres.COLUMNS)
    run.write_json("cox.json", {"converged": fitres.converged,
                                "iterations": fitres.iterations,
                                "loglik": fitres.loglik,
                                "singular": fitres.singular,
                                "message": fitres.message,
                                "coefficients": rows})
    if not fitres.converged:
        print(f"warning: {fitres.message or 'did not converge'}",
              file=sys.stderr)
    return f"cox: loglik {fitres.loglik:.4f}, converged={fitres.converged}"


def _expansion(spec: str) -> tuple[str, list[list[str]]]:
    """``BASE:EXT1,EXT2`` -> (base, extensions); '+' fuses an extension."""
    base, _, exts = spec.partition(":")
    return base, [e.split("+") for e in exts.split(",") if e]


def _add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        p.add_argument("--input", required=True, help="input CSV file")
        p.add_argument("--config", required=True,
                       help="JSON column-role config")
        p.add_argument("--outdir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)


def _add_time_bins(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-bins", type=int, default=4)
    p.add_argument("--time-binning", choices=("width", "km"), default="width",
                   help="equal-width bins over event times, or bins of equal "
                        "product-limit mass")


def _add_screen(p: argparse.ArgumentParser) -> None:
    _add_time_bins(p)
    p.add_argument("--feature-bins", type=int, default=4)
    p.add_argument("--max-order", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--reliability", type=int, default=0, metavar="N",
                   help="attach reliability p-values from N noise replicates")


def _add_n_sim(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-sim", type=int, default=10_000)


def _add_subdivide(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--subdivide", metavar="FEATURE", required=required,
                   help="analyze each category of FEATURE separately")
    p.add_argument("--expand", metavar="BASE:EXT1,EXT2", type=_expansion,
                   help="emit expansion dots in sub-collections "
                        "(extensions joined with '+' fuse into pairs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survent",
        description="entropy-based exploration of right-censored survival data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--censor-rate", type=float, required=True,
                   help="target censored fraction in [0.005, 1)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p, needs_input=False)

    p = sub.add_parser("analyze", help="full pipeline: ranking, independence "
                                       "test, hazard-regression comparison")
    _add_common(p)
    _add_screen(p)
    p.add_argument("--no-cox", action="store_true")
    _add_n_sim(p)
    _add_subdivide(p, required=False)

    p = sub.add_parser("censor-test", help="censoring-independence diagnostic")
    _add_common(p)
    _add_time_bins(p)
    _add_n_sim(p)

    p = sub.add_parser("mfs", help="feature-set ranking only")
    _add_common(p)
    _add_screen(p)

    p = sub.add_parser("subdivide", help="per-category sub-collection reports")
    _add_common(p)
    _add_screen(p)
    _add_subdivide(p, required=True)

    p = sub.add_parser("cox", help="proportional-hazards fit")
    _add_common(p)
    p.add_argument("--features", type=lambda s: s.split(","),
                   help="comma-separated subset of features")
    return parser


_HANDLERS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "censor-test": cmd_censor_test,
    "mfs": cmd_mfs,
    "subdivide": cmd_subdivide,
    "cox": cmd_cox,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = Manifest(args, sys.argv[1:] if argv is None else argv)
        message = _HANDLERS[args.command](run)
        run.write()
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(message or f"{args.command}: wrote {len(run.written)} files to "
          f"{run.outdir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
