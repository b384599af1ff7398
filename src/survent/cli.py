"""Batch command-line front end.

Subcommands: ``simulate``, ``analyze``, ``censor-test``, ``mfs``,
``subdivide``, ``cox``.  Every run writes a manifest (command, config
snapshot, seed, input/output digests, timings) next to its outputs, so
reruns can be audited; identical invocations produce byte-identical outputs
apart from the manifest timestamps.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path


from . import __version__
from .binning import BinningScheme, equal_width_bins, explicit_bins, km_quantile_bins
from .censor_test import run_censor_test
from .coxph import fit as cox_fit
from .data import ColumnConfig, ConfigError, Dataset, ingest_csv
from .mfs import (
    categorize_features,
    ce_expansion,
    mce_matrix,
    reliability_null,
    run_mfs,
    subdivide,
)
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
    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.started = time.time()
        self.record: dict = {
            "command": command,
            "argv": sys.argv[1:],
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "config": {},
            "inputs": {},
            "outputs": {},
        }

    def add_config(self, **kv) -> None:
        self.record["config"].update(kv)

    def add_input(self, path: Path) -> None:
        self.record["inputs"][str(path)] = _sha256(path)

    def add_outputs(self, paths) -> None:
        for p in paths:
            self.record["outputs"][str(p)] = _sha256(Path(p))

    def write(self, outdir: Path) -> None:
        self.record["started"] = self.started
        self.record["finished"] = time.time()
        self.record["duration_s"] = self.record["finished"] - self.started
        with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(self.record, fh, indent=2)


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> tuple[Dataset, ColumnConfig]:
    config = ColumnConfig.from_json(args.config)
    dataset = ingest_csv(args.input, config)
    return dataset, config


def _time_scheme(args, dataset: Dataset, config: ColumnConfig) -> BinningScheme:
    """Response-time bins: explicit edges from the config win; otherwise
    equal-width bins over the full observed range (so censored-only tail
    bins exist, as in hand-chosen clinical schemes) or product-limit
    quantile bins."""
    if config.bins and config.time in config.bins:
        return explicit_bins(config.bins[config.time])
    if args.time_binning == "km":
        return km_quantile_bins(dataset, args.time_bins)
    return equal_width_bins(dataset.y, args.time_bins)


def _feature_schemes(config: ColumnConfig) -> dict:
    out = {}
    for name, edges in (config.bins or {}).items():
        if name != config.time:
            out[name] = explicit_bins(edges)
    return out


def _write_rows(path: Path, rows: list[dict],
                fieldnames: list[str] | None = None) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=fieldnames or list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _write_cox(fitres, outdir: Path) -> list[Path]:
    """Write ``cox.csv`` and ``cox.json``; warn on stderr if the fit did not
    converge."""
    rows = fitres.summary_rows()
    _write_rows(outdir / "cox.csv", rows)
    with open(outdir / "cox.json", "w", encoding="utf-8") as fh:
        json.dump({"converged": fitres.converged,
                   "iterations": fitres.iterations,
                   "loglik": fitres.loglik,
                   "singular": fitres.singular,
                   "message": fitres.message,
                   "coefficients": rows}, fh, indent=2)
    if not fitres.converged:
        print(f"warning: {fitres.message or 'did not converge'}",
              file=sys.stderr)
    return [outdir / "cox.csv", outdir / "cox.json"]


def cmd_simulate(args) -> int:
    if not 0 < args.censor_rate < 1:
        raise UsageError("--censor-rate must lie strictly between 0 and 1")
    manifest = Manifest("simulate", args)
    config = SimConfig(n=args.n, censor_target=args.censor_rate, seed=args.seed)
    dataset = generate(config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = write_dataset_csv(dataset, out)
    manifest.add_config(n=args.n, censor_target=args.censor_rate,
                        rate_used=dataset.meta["censor_rate_used"])
    manifest.add_outputs(written)
    manifest.write(out.parent)
    print(f"wrote {out} ({dataset.n} rows, {dataset.n_c} censored)")
    return 0


def _run_mfs_reports(dataset, scheme, cats, args, outdir, prefix="",
                     features=None) -> list[Path]:
    reports = run_mfs(dataset, scheme, cats=cats, max_order=args.max_order,
                      features=features)
    written = []
    if args.reliability > 0:
        null = reliability_null(dataset, scheme, cats=cats,
                                n_rep=args.reliability,
                                n_bins=args.feature_bins, seed=args.seed)
        for rec in reports[1].records:
            rec.reliability_p = null.p_value(rec.ce)
        path = outdir / f"{prefix}reliability_null.csv"
        _write_rows(path, [{"replicate": i + 1, "ce": repr(float(v))}
                           for i, v in enumerate(null.ces)])
        written.append(path)
    for order, report in reports.items():
        stem = f"{prefix}mfs_order{order}"
        report.to_csv(outdir / f"{stem}.csv")
        with open(outdir / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
        written += [outdir / f"{stem}.csv", outdir / f"{stem}.json"]
    return written


def cmd_analyze(args) -> int:
    manifest = Manifest("analyze", args)
    dataset, config = _load(args)
    manifest.add_input(Path(args.input))
    manifest.add_input(Path(args.config))
    outdir = _outdir(args)
    scheme = _time_scheme(args, dataset, config)
    cats = categorize_features(dataset, n_bins=args.feature_bins,
                               schemes=_feature_schemes(config))
    manifest.add_config(config=config.to_dict(), time_edges=list(scheme.edges),
                        feature_bins=args.feature_bins,
                        max_order=args.max_order)
    written = _run_mfs_reports(dataset, scheme, cats, args, outdir)

    if not args.no_cox:
        written += _write_cox(cox_fit(dataset), outdir)

    if dataset.n_c and dataset.n_u:
        result = run_censor_test(dataset, scheme, n_sim=args.n_sim,
                                 seed=args.seed)
        written += result.write(outdir / "censor_test")

    mce = mce_matrix(cats)
    mce.to_csv(outdir / "mce_matrix.csv")
    written.append(outdir / "mce_matrix.csv")
    _write_rows(outdir / "mce_edges.csv",
                [{"a": a, "b": b, "mce": repr(m)} for a, b, m in mce.edges],
                fieldnames=["a", "b", "mce"])
    written.append(outdir / "mce_edges.csv")

    if args.subdivide:
        written += _cmd_subdivide_core(dataset, scheme, cats, args, outdir)

    manifest.add_outputs(written)
    manifest.write(outdir)
    print(f"analyze: wrote {len(written)} files to {outdir}")
    return 0


def _cmd_subdivide_core(dataset, scheme, cats, args, outdir) -> list[Path]:
    feature = args.subdivide
    if feature not in dataset.feature_names:
        raise UsageError(f"unknown feature {feature!r}")
    written = []
    rest = [f for f in dataset.feature_names if f != feature]
    for level, sub in subdivide(dataset, cats, feature):
        subdir = outdir / f"{feature}={level}"
        subdir.mkdir(parents=True, exist_ok=True)
        sub_cats = categorize_features(sub, n_bins=args.feature_bins)
        written += _run_mfs_reports(sub, scheme, sub_cats, args, subdir,
                                    features=rest)
        if args.expand:
            base, _, exts = args.expand.partition(":")
            extensions = [e.split("+") for e in exts.split(",") if e]
            exp = ce_expansion(sub, scheme, sub_cats, base, extensions)
            exp.to_csv(subdir / "ce_expansion.csv")
            written.append(subdir / "ce_expansion.csv")
    return written


def cmd_censor_test(args) -> int:
    manifest = Manifest("censor-test", args)
    dataset, config = _load(args)
    manifest.add_input(Path(args.input))
    manifest.add_input(Path(args.config))
    outdir = _outdir(args)
    scheme = _time_scheme(args, dataset, config)
    result = run_censor_test(dataset, scheme, n_sim=args.n_sim, seed=args.seed)
    written = result.write(outdir)
    manifest.add_config(time_edges=list(scheme.edges), n_sim=args.n_sim)
    manifest.add_outputs(written)
    manifest.write(outdir)
    print(result.verdict)
    return 0


def cmd_mfs(args) -> int:
    manifest = Manifest("mfs", args)
    dataset, config = _load(args)
    manifest.add_input(Path(args.input))
    manifest.add_input(Path(args.config))
    outdir = _outdir(args)
    scheme = _time_scheme(args, dataset, config)
    cats = categorize_features(dataset, n_bins=args.feature_bins,
                               schemes=_feature_schemes(config))
    written = _run_mfs_reports(dataset, scheme, cats, args, outdir)
    manifest.add_config(time_edges=list(scheme.edges), max_order=args.max_order)
    manifest.add_outputs(written)
    manifest.write(outdir)
    print(f"mfs: wrote {len(written)} files to {outdir}")
    return 0


def cmd_subdivide(args) -> int:
    manifest = Manifest("subdivide", args)
    dataset, config = _load(args)
    manifest.add_input(Path(args.input))
    manifest.add_input(Path(args.config))
    outdir = _outdir(args)
    scheme = _time_scheme(args, dataset, config)
    cats = categorize_features(dataset, n_bins=args.feature_bins,
                               schemes=_feature_schemes(config))
    written = _cmd_subdivide_core(dataset, scheme, cats, args, outdir)
    manifest.add_outputs(written)
    manifest.write(outdir)
    print(f"subdivide: wrote {len(written)} files to {outdir}")
    return 0


def cmd_cox(args) -> int:
    manifest = Manifest("cox", args)
    dataset, config = _load(args)
    manifest.add_input(Path(args.input))
    manifest.add_input(Path(args.config))
    outdir = _outdir(args)
    features = args.features.split(",") if args.features else None
    fitres = cox_fit(dataset, features=features)
    written = _write_cox(fitres, outdir)
    manifest.add_outputs(written)
    manifest.write(outdir)
    print(f"cox: loglik {fitres.loglik:.4f}, converged={fitres.converged}")
    return 0


def _add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        p.add_argument("--input", required=True, help="input CSV file")
        p.add_argument("--config", required=True,
                       help="JSON column-role config")
        p.add_argument("--outdir", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)


def _add_binning(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-bins", type=int, default=4)
    p.add_argument("--time-binning", choices=("width", "km"), default="width",
                   help="equal-width bins over event times, or bins of equal "
                        "product-limit mass")
    p.add_argument("--feature-bins", type=int, default=4)
    p.add_argument("--max-order", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--reliability", type=int, default=0, metavar="N",
                   help="attach reliability p-values from N noise replicates")


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
                   help="target censored fraction in (0, 1)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p, needs_input=False)

    p = sub.add_parser("analyze", help="full pipeline: ranking, independence "
                                       "test, hazard-regression comparison")
    _add_common(p)
    _add_binning(p)
    p.add_argument("--no-cox", action="store_true")
    p.add_argument("--n-sim", type=int, default=10_000)
    p.add_argument("--subdivide", metavar="FEATURE",
                   help="also analyze each category of FEATURE separately")
    p.add_argument("--expand", metavar="BASE:EXT1,EXT2",
                   help="emit expansion dots in sub-collections "
                        "(extensions joined with '+' fuse into pairs)")

    p = sub.add_parser("censor-test", help="censoring-independence diagnostic")
    _add_common(p)
    p.add_argument("--time-bins", type=int, default=4)
    p.add_argument("--time-binning", choices=("width", "km"), default="width")
    p.add_argument("--n-sim", type=int, default=10_000)

    p = sub.add_parser("mfs", help="feature-set ranking only")
    _add_common(p)
    _add_binning(p)

    p = sub.add_parser("subdivide", help="per-category sub-collection reports")
    _add_common(p)
    _add_binning(p)
    p.add_argument("--subdivide", dest="subdivide", required=True,
                   metavar="FEATURE")
    p.add_argument("--expand", metavar="BASE:EXT1,EXT2")

    p = sub.add_parser("cox", help="proportional-hazards fit")
    _add_common(p)
    p.add_argument("--features", help="comma-separated subset of features")
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
        return _HANDLERS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
