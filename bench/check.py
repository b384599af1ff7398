"""Output checks for one CLI invocation.

Two layers of checking:

* invariants that hold on any seed: every output is listed in the run's
  manifest with a matching sha256, and every MFS report holds all feature
  sets of its order, sorted by conditional entropy, with drops equal to
  ``h_response - ce`` and entropies and p-values in range;
* a comparison with a reference digest made at the seed commit, when one
  exists for the seed (``refs/<workload>.json``).

A digest maps each output file to its content: CSV rows with numeric cells
parsed, JSON as loaded.  Files too large to keep (the censor test's sample
CSVs and the reliability-null CSVs) are digested as a row count plus
per-column summaries.  ``manifest.json`` carries timestamps and is covered by
the invariants instead, and Cox ``converged``/``iterations``/``message`` are
layer facts reported by the traced run, not outputs.

Tolerances (see NOTES.md for the reasoning):
  labels, record order, flags, file set  exact
  every other number                     |a - b| <= 1e-9 + 1e-9 |b|
  mce_matrix.csv (printed with %.6f)     |a - b| <= 1.01e-6
  Cox beta                               |a - b| <= 1e-5
  Cox Wald p                             |a - b| <= 1e-4
  Cox se                                 |a - b| <= 1e-9 + 1e-5 |b|
  Cox loglik                             |a - b| <= 1e-6 + 1e-9 |b|
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import re
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
SUMMARISED = ("_samples.csv", "reliability_null.csv")
LAYER_FACTS = {"cox.json": ("converged", "iterations", "message")}
# MFS JSON records repeat the CSV rows; the JSON header fields are kept
REPEATED = {"records"}

DEFAULT_TOL = (1e-9, 1e-9)  # (absolute, relative)
COX_TOL = {"beta": (1e-5, 0.0), "p": (1e-4, 0.0),
           "se": (1e-9, 1e-5), "loglik": (1e-6, 1e-9)}


def _cell(text: str):
    return float(text) if _NUMBER.fullmatch(text) else text


def _summary(header: list[str], body: list[list[str]]) -> dict:
    cols = {}
    for j, name in enumerate(header):
        vals = [_cell(r[j]) for r in body]
        if all(isinstance(v, float) for v in vals):
            cols[name] = {
                "sum": math.fsum(vals),
                "sumsq": math.fsum(v * v for v in vals),
                "ranked": math.fsum(i * v for i, v in enumerate(vals, 1)),
                "min": min(vals, default=0.0),
                "max": max(vals, default=0.0),
            }
        else:
            counts: dict[str, int] = {}
            for v in vals:
                counts[str(v)] = counts.get(str(v), 0) + 1
            cols[name] = counts
    return {"rows": len(body), "columns": cols}


def _digest_file(path: Path):
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        drop = set(LAYER_FACTS.get(path.name, ())) | REPEATED
        return {k: v for k, v in data.items() if k not in drop}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if path.name.endswith(SUMMARISED):
        return _summary(rows[0], rows[1:])
    return [[_cell(c) for c in row] for row in rows]


def digest(outdir: Path) -> dict:
    """Digest of every output file under ``outdir`` except the manifest."""
    return {p.relative_to(outdir).as_posix(): _digest_file(p)
            for p in sorted(outdir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def _tol(file: str, column: str | None) -> tuple[float, float]:
    name = file.rsplit("/", 1)[-1]
    if name == "mce_matrix.csv":
        return (1.01e-6, 0.0)
    if name in ("cox.csv", "cox.json") and column in COX_TOL:
        return COX_TOL[column]
    return DEFAULT_TOL


def _compare(got, ref, file: str, where: str, column: str | None,
             errors: list[str]) -> None:
    if len(errors) >= 20:
        return
    if isinstance(ref, float) or (isinstance(ref, int)
                                  and not isinstance(ref, bool)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            errors.append(f"{file}{where}: {got!r} is not a number ({ref!r})")
            return
        if math.isnan(ref) or math.isnan(got):
            if not (math.isnan(ref) and math.isnan(got)):
                errors.append(f"{file}{where}: {got!r} != {ref!r}")
            return
        atol, rtol = _tol(file, column)
        if abs(got - ref) > atol + rtol * abs(ref):
            errors.append(f"{file}{where}: {got!r} differs from {ref!r} "
                          f"by more than {atol} + {rtol}*|ref|")
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            errors.append(f"{file}{where}: keys differ")
            return
        for k in ref:
            _compare(got[k], ref[k], file, f"{where}.{k}", k, errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{file}{where}: length "
                          f"{len(got) if isinstance(got, list) else '?'} "
                          f"!= {len(ref)}")
            return
        header = ref[0] if ref and isinstance(ref[0], list) else None
        for i, (g, r) in enumerate(zip(got, ref)):
            if header is not None and isinstance(r, list):
                for j, (gc, rc) in enumerate(zip(g, r)):
                    _compare(gc, rc, file, f"[{i}][{j}]",
                             header[j] if j < len(header) else None, errors)
                if len(g) != len(r):
                    errors.append(f"{file}[{i}]: row width differs")
            else:
                _compare(g, r, file, f"{where}[{i}]", column, errors)
    elif got != ref:
        errors.append(f"{file}{where}: {got!r} != {ref!r}")


def compare(got: dict, ref: dict) -> list[str]:
    """Differences between two digests, beyond the stated tolerances."""
    errors: list[str] = []
    if set(got) != set(ref):
        missing = sorted(set(ref) - set(got))
        extra = sorted(set(got) - set(ref))
        errors.append(f"file set differs: missing {missing}, extra {extra}")
    for name in sorted(set(got) & set(ref)):
        _compare(got[name], ref[name], name, "", None, errors)
    return errors


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_manifest(outdir: Path, errors: list[str]) -> None:
    path = outdir / "manifest.json"
    if not path.is_file():
        errors.append("manifest.json missing")
        return
    with open(path, encoding="utf-8") as fh:
        listed = {Path(k).resolve(): v
                  for k, v in json.load(fh)["outputs"].items()}
    present = {p.resolve() for p in outdir.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    if set(listed) != present:
        errors.append("manifest outputs do not match the files written")
    for p in sorted(set(listed) & present):
        if _sha256(p) != listed[p]:
            errors.append(f"{p.name}: sha256 differs from the manifest")


def _check_mfs(name: str, rows: list, header_json: dict,
               errors: list[str]) -> None:
    if "order" not in header_json:
        errors.append(f"{name}: its JSON report is missing")
        return
    order = header_json["order"]
    h = header_json["h_response"]
    head, body = rows[0], rows[1:]
    col = {c: i for i, c in enumerate(head)}
    labels = [r[col["features"]] for r in body]
    sets = {tuple(str(lab).split("_")) for lab in labels}
    features = sorted({f for s in sets for f in s},
                      key=lambda f: int(f[1:]) if f[1:].isdigit() else f)
    expected = set(itertools.combinations(features, order))
    if len(labels) != len(expected) or sets != expected:
        errors.append(f"{name}: not every {order}-set of {features} appears "
                      "exactly once")
    keys = [(r[col["ce"]], tuple(str(r[col["features"]]).split("_")))
            for r in body]
    if keys != sorted(keys):
        errors.append(f"{name}: records are not sorted by (ce, features)")
    for r in body:
        ce, drop = r[col["ce"]], r[col["ce_drop"]]
        if not -1e-12 <= ce <= h + 1e-9:
            errors.append(f"{name}: ce {ce!r} outside [0, H={h!r}]")
        if abs(drop - (h - ce)) > 1e-9:
            errors.append(f"{name}: ce_drop {drop!r} != H - ce")
        p = r[col["reliability_p"]]
        if p != "" and not 0.0 <= p <= 1.0:
            errors.append(f"{name}: reliability_p {p!r} outside [0, 1]")


def invariants(outdir: Path, dig: dict) -> list[str]:
    """Checks that hold on any seed."""
    errors: list[str] = []
    _check_manifest(outdir, errors)
    for name, content in dig.items():
        if re.search(r"(^|/)mfs_order\d\.csv$", name):
            _check_mfs(name, content, dig.get(name[:-4] + ".json", {}),
                       errors)
        elif name.endswith("censor_test.json"):
            for axis in ("rows", "cols"):
                for p in content[axis]["p_values"]:
                    if p is not None and not 0.0 <= p <= 1.0:
                        errors.append(f"{name}: p-value {p!r} outside [0, 1]")
    return errors


def load_refs(path: Path) -> dict:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rounded(obj):
    """A digest with floats cut to 12 significant digits, for storage.

    The cut is at most 5e-13 relative, far inside every tolerance above.
    """
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    return obj
