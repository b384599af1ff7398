"""End-to-end command-line runs on small inputs."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from survent import (
    categorize_features,
    ce_expansion,
    equal_width_bins,
    explicit_bins,
    fit,
    ingest_csv,
    mce_matrix,
    run_mfs,
    subdivide,
)
import survent.cli as cli
from survent import redistribution
from survent.cli import main


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def sim_files(tmp_path):
    out = tmp_path / "data" / "sim.csv"
    rc = main(["simulate", "--n", "400", "--censor-rate", "0.3",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "time": "time", "status": "status", "id": "id",
        "features": [f"V{j}" for j in range(1, 11)],
    }))
    return out, config


def test_simulate_counts_and_rate(sim_files):
    out, _ = sim_files
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 401
    statuses = [line.split(",")[2] for line in lines[1:]]
    frac = statuses.count("0") / 400
    assert abs(frac - 0.3) < 0.08
    sidecar = json.loads((out.parent / "sim.csv.meta.json").read_text())
    assert sidecar["n"] == 400
    assert (out.parent / "manifest.json").exists()


def test_simulate_rejects_bad_rate(tmp_path):
    rc = main(["simulate", "--n", "10", "--censor-rate", "1.2",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_simulate_deterministic_rerun(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["simulate", "--n", "150", "--censor-rate", "0.2",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
    assert _digest(a) == _digest(b)


def test_analyze_end_to_end(sim_files, tmp_path):
    data, config = sim_files
    outdir = tmp_path / "analysis"
    rc = main(["analyze", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--max-order", "2",
               "--reliability", "25", "--seed", "1", "--n-sim", "300"])
    assert rc == 0
    for name in ("mfs_order1.csv", "mfs_order2.csv", "cox.csv",
                 "mce_matrix.csv", "manifest.json"):
        assert (outdir / name).exists(), name
    assert (outdir / "censor_test" / "censor_test.json").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["outputs"]
    # reliability p-values present in the order-1 table
    header, *rows = (outdir / "mfs_order1.csv").read_text().splitlines()
    assert "reliability_p" in header
    assert not any(row.endswith(",") for row in rows)


def test_analyze_warns_when_cox_does_not_converge(sim_files, tmp_path,
                                                  monkeypatch, capsys):
    def stalled_fit(*args, **kwargs):
        return dataclasses.replace(fit(*args, **kwargs), converged=False,
                                   message="step-halving failed")

    monkeypatch.setattr("survent.cli.cox_fit", stalled_fit)
    data, config = sim_files
    outdir = tmp_path / "stalled"
    rc = main(["analyze", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--max-order", "1", "--n-sim", "50"])
    assert rc == 0
    assert "warning: step-halving failed" in capsys.readouterr().err
    assert json.loads((outdir / "cox.json").read_text())["converged"] is False


def test_analyze_missing_config_exits_2(sim_files, tmp_path):
    data, _ = sim_files
    rc = main(["analyze", "--input", str(data),
               "--config", str(tmp_path / "nope.json"),
               "--outdir", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_analyze_bad_column_config_exits_2(sim_files, tmp_path):
    data, _ = sim_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"time": "nope", "status": "status",
                               "features": ["V1"]}))
    rc = main(["analyze", "--input", str(data), "--config", str(bad),
               "--outdir", str(tmp_path / "o2")])
    assert rc == 2


def test_censor_test_command(sim_files, tmp_path):
    data, config = sim_files
    outdir = tmp_path / "ct"
    rc = main(["censor-test", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--n-sim", "200", "--seed", "0"])
    assert rc == 0
    payload = json.loads((outdir / "censor_test.json").read_text())
    assert payload["verdict"].startswith("non-informative")


def test_mfs_command_with_km_binning(sim_files, tmp_path):
    data, config = sim_files
    outdir = tmp_path / "mfs"
    rc = main(["mfs", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--time-binning", "km",
               "--time-bins", "5", "--max-order", "1"])
    assert rc == 0
    assert (outdir / "mfs_order1.csv").exists()


def test_subdivide_command(sim_files, tmp_path):
    data, config = sim_files
    outdir = tmp_path / "subs"
    rc = main(["subdivide", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--subdivide", "V1",
               "--max-order", "1", "--feature-bins", "2",
               "--expand", "V2:V3,V3+V4"])
    assert rc == 0
    subdirs = sorted(p.name for p in outdir.iterdir() if p.is_dir())
    assert subdirs == ["V1=1", "V1=2"]
    assert (outdir / "V1=1" / "ce_expansion.csv").exists()


def test_subdivide_unknown_feature(sim_files, tmp_path):
    data, config = sim_files
    rc = main(["subdivide", "--input", str(data), "--config", str(config),
               "--outdir", str(tmp_path / "o"), "--subdivide", "nope"])
    assert rc == 2


def test_cox_command(sim_files, tmp_path):
    data, config = sim_files
    outdir = tmp_path / "cox"
    rc = main(["cox", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--features", "V1,V7"])
    assert rc == 0
    payload = json.loads((outdir / "cox.json").read_text())
    assert [c["feature"] for c in payload["coefficients"]] == ["V1", "V7"]


def test_explicit_time_edges_from_config(sim_files, tmp_path):
    data, config = sim_files
    cfg = json.loads(config.read_text())
    cfg["bins"] = {"time": [0.0, 0.5, 1.0, 2.0, 10.0]}
    config2 = tmp_path / "cfg2.json"
    config2.write_text(json.dumps(cfg))
    outdir = tmp_path / "explicit"
    rc = main(["mfs", "--input", str(data), "--config", str(config2),
               "--outdir", str(outdir), "--max-order", "1"])
    assert rc == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["time_edges"] == [0.0, 0.5, 1.0, 2.0, 10.0]


def test_analyze_deterministic_outputs(sim_files, tmp_path):
    data, config = sim_files
    digests = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        rc = main(["analyze", "--input", str(data), "--config", str(config),
                   "--outdir", str(outdir), "--max-order", "1",
                   "--seed", "5", "--n-sim", "100", "--no-cox"])
        assert rc == 0
        files = sorted(p for p in outdir.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        digests.append([_digest(p) for p in files])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("command, opts", [
    ("analyze", ["--subdivide", "nope"]),
    ("analyze", ["--subdivide", "V9", "--expand", "V7:Vnope"]),
    ("analyze", ["--expand", "V7:V3+Vnope"]),
    ("subdivide", ["--subdivide", "V1", "--expand", "nope:V3"]),
    ("cox", ["--features", "V1,nope"]),
    ("mfs", ["--input", "{tmp}/missing.csv"]),
    ("mfs", ["--config", "{tmp}/missing.json"]),
    ("mfs", ["--config", "{tmp}/invalid.json"]),
    ("simulate", ["--n", "0", "--censor-rate", "0.3"]),
    ("simulate", ["--n", "10", "--censor-rate", "0.001"]),
    ("simulate", ["--n", "10", "--censor-rate", "1.2"]),
    ("analyze", ["--expand", "V7:V3"]),
    ("mfs", ["--config", "{tmp}/repeated.json"]),
    ("mfs", ["--config", "{tmp}/unsorted.json"]),
    ("mfs", ["--config", "{tmp}/unknown_bins.json"]),
    ("mfs", ["--config", "{tmp}/unknown_kind.json"]),
    ("mfs", ["--config", "{tmp}/unlisted_kind.json"]),
    ("analyze", ["--n-sim", "0"]),
    ("mfs", ["--time-bins", "1"]),
    ("mfs", ["--feature-bins", "1"]),
    ("mfs", ["--reliability", "-5"]),
    ("cox", ["--features", "V1,V1"]),
])
def test_usage_errors_exit_2_before_any_output(sim_files, tmp_path, command,
                                               opts, capsys):
    data, config = sim_files
    (tmp_path / "invalid.json").write_text('{"time": "time",')
    cfg = json.loads(config.read_text())
    (tmp_path / "repeated.json").write_text(
        json.dumps({**cfg, "features": ["V1", "V1"]}))
    (tmp_path / "unsorted.json").write_text(
        json.dumps({**cfg, "bins": {"V2": [0.5, 0.2, 0.8]}}))
    (tmp_path / "unknown_bins.json").write_text(
        json.dumps({**cfg, "bins": {"V99": [0, 1, 2]}}))
    (tmp_path / "unknown_kind.json").write_text(
        json.dumps({**cfg, "kinds": {"V1": "weird"}}))
    (tmp_path / "unlisted_kind.json").write_text(
        json.dumps({**cfg, "features": ["V1", "V2"],
                    "kinds": {"V9": "categorical"}}))
    outdir = tmp_path / "out"
    if command == "simulate":
        given = ["--out", str(outdir / "sim.csv")]
    else:  # a repeated option's last value wins
        given = ["--input", str(data), "--config", str(config),
                 "--outdir", str(outdir)]
    opts = [o.format(tmp=tmp_path) for o in opts]
    assert main([command, *given, *opts]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not outdir.exists()


def test_subcollections_use_explicit_feature_bins(sim_files, tmp_path):
    data, config = sim_files
    cfg = json.loads(config.read_text())
    cfg["bins"] = {"V2": [0.0, 0.5, 1.0]}
    config2 = tmp_path / "binned.json"
    config2.write_text(json.dumps(cfg))
    outdir = tmp_path / "subs"
    rc = main(["subdivide", "--input", str(data), "--config", str(config2),
               "--outdir", str(outdir), "--subdivide", "V1",
               "--max-order", "1"])
    assert rc == 0
    ds = ingest_csv(data, config2)
    scheme = equal_width_bins(ds.y, 4)
    v2_bins = {"V2": explicit_bins([0.0, 0.5, 1.0])}
    for level, sub in subdivide(ds, categorize_features(ds, schemes=v2_bins),
                                "V1"):
        cats = categorize_features(sub, schemes=v2_bins)
        assert cats.levels["V2"] == (1, 2)
        expected = run_mfs(sub, scheme, cats=cats, max_order=1)[1]
        report = json.loads((outdir / f"V1={level}" / "mfs_order1.json")
                            .read_text())
        ce = {r["features"]: r["ce"] for r in report["records"]}
        assert ce["V2"] == expected.record_for(["V2"]).ce


def _files(outdir: Path) -> dict[str, str]:
    return {str(p.relative_to(outdir)): _digest(p)
            for p in outdir.rglob("*")
            if p.is_file() and p.name != "manifest.json"}


def test_commands_write_what_analyze_writes(sim_files, tmp_path):
    data, config = sim_files
    common = ["--input", str(data), "--config", str(config), "--seed", "3"]
    binning = ["--max-order", "2", "--reliability", "20", "--feature-bins", "3"]
    sub = ["--subdivide", "V9", "--expand", "V7:V3,V3+V6"]
    runs = {
        "analyze": [*binning, "--n-sim", "200", *sub],
        "mfs": binning,
        "censor-test": ["--n-sim", "200"],
        "cox": [],
        "subdivide": [*binning, *sub],
    }
    files = {}
    for command, opts in runs.items():
        outdir = tmp_path / command
        assert main([command, *common, "--outdir", str(outdir), *opts]) == 0
        files[command] = _files(outdir)
    analyze = files.pop("analyze")
    covered = set()
    for command, written in files.items():
        prefix = "censor_test/" if command == "censor-test" else ""
        assert written
        for name, digest in written.items():
            assert analyze.get(prefix + name) == digest, (command, name)
        covered |= {prefix + name for name in written}
    assert set(analyze) - covered == {"mce_matrix.csv", "mce_edges.csv"}


def test_manifest_outputs_are_the_files_written(sim_files, tmp_path):
    data, config = sim_files
    common = ["--input", str(data), "--config", str(config)]
    runs = {
        "simulate": ["--n", "50", "--censor-rate", "0.3"],
        "analyze": [*common, "--max-order", "1", "--reliability", "5",
                    "--n-sim", "50", "--subdivide", "V1", "--expand",
                    "V2:V3"],
        "censor-test": [*common, "--n-sim", "50"],
        "mfs": [*common, "--max-order", "1"],
        "subdivide": [*common, "--subdivide", "V1", "--max-order", "1"],
        "cox": common,
    }
    for command, opts in runs.items():
        outdir = tmp_path / command
        target = (["--out", str(outdir / "sim.csv")] if command == "simulate"
                  else ["--outdir", str(outdir)])
        assert main([command, *opts, *target]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        listed = {str(Path(p).relative_to(outdir)): d
                  for p, d in manifest["outputs"].items()}
        assert listed == _files(outdir), command
        assert manifest["command"] == command
        assert manifest["argv"] == [command, *opts, *target]
        assert "options" in manifest["config"]


def test_manifest_tallies_clamps_per_collection(sim_files, tmp_path):
    data, config = sim_files
    cfg = json.loads(config.read_text())
    cfg["bins"] = {"V2": [0.2, 0.5, 0.8]}
    config2 = tmp_path / "binned.json"
    config2.write_text(json.dumps(cfg))
    outdir = tmp_path / "subs"
    rc = main(["subdivide", "--input", str(data), "--config", str(config2),
               "--outdir", str(outdir), "--subdivide", "V9",
               "--max-order", "1"])
    assert rc == 0
    clamps = json.loads((outdir / "manifest.json").read_text())["clamps"]
    assert clamps["whole sample"] == {"V2": 145}
    assert set(clamps) == {"whole sample", *(f"V9={k}" for k in range(1, 5))}
    assert sum(c["V2"] for k, c in clamps.items() if k != "whole sample") == 145


def test_reports_match_csv_writer(sim_files, tmp_path):
    """``mce_matrix.csv`` and ``ce_expansion.csv`` go through the run's row
    writer; their bytes are those of a plain ``csv.writer`` on the same
    results."""
    data, config = sim_files
    outdir = tmp_path / "out"
    rc = main(["analyze", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--max-order", "1", "--n-sim", "50",
               "--no-cox", "--subdivide", "V9", "--expand", "V7:V3,V3+V6"])
    assert rc == 0
    ds = ingest_csv(data, config)
    cats = categorize_features(ds)
    scheme = equal_width_bins(ds.y, 4)
    expected = tmp_path / "expected.csv"

    mce = mce_matrix(cats)
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", *mce.names])
        for name, row in zip(mce.names, mce.matrix):
            writer.writerow([name, *(f"{v:.6f}" for v in row)])
    assert (outdir / "mce_matrix.csv").read_bytes() == expected.read_bytes()

    for level, sub in subdivide(ds, cats, "V9"):
        exp = ce_expansion(sub, scheme, categorize_features(sub), "V7",
                           [["V3"], ["V3", "V6"]])
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "category", "rescaled_ce", "raw_ce",
                             "mass", "dominant_response"])
            for d in exp.dots:
                writer.writerow([d.series, "_".join(map(str, d.category)),
                                 repr(d.rescaled_ce), repr(d.raw_ce),
                                 repr(d.mass), d.dominant_response])
        path = outdir / f"V9={level}" / "ce_expansion.csv"
        assert path.read_bytes() == expected.read_bytes(), level


@pytest.mark.parametrize("command, empty", [
    (["mfs", "--max-order", "3"], "mfs_order3.csv"),
    (["subdivide", "--subdivide", "V1", "--max-order", "2"],
     "V1=1/mfs_order2.csv"),
])
def test_empty_report_is_header_only(sim_files, tmp_path, command, empty):
    """With two features there are no triplets, and a sub-collection split
    on V1 has no pairs: those reports are header-only, and the run exits 0."""
    data, config = sim_files
    cfg = json.loads(config.read_text())
    cfg["features"] = ["V1", "V2"]
    config2 = tmp_path / "two.json"
    config2.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    rc = main([command[0], "--input", str(data), "--config", str(config2),
               "--outdir", str(outdir), *command[1:]])
    assert rc == 0
    assert (outdir / empty).read_bytes() == (
        b"features,ce,ce_drop,sce_drop,ecological,ecological_flag,"
        b"interacting,reliability_p\r\n")
    assert json.loads((outdir / empty).with_suffix(".json").read_text()
                      )["records"] == []
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert str(outdir / empty) in manifest["outputs"]


@pytest.mark.parametrize("opts", [[], ["--subdivide", "V1"]])
def test_analyze_one_feature(sim_files, tmp_path, opts):
    """One feature: a 1 x 1 association matrix, a header-only edge list,
    and a manifest listing every file written."""
    data, config = sim_files
    cfg = json.loads(config.read_text())
    config1 = tmp_path / "one.json"
    config1.write_text(json.dumps({**cfg, "features": ["V1"]}))
    outdir = tmp_path / "out"
    rc = main(["analyze", "--input", str(data), "--config", str(config1),
               "--outdir", str(outdir), "--max-order", "1", "--n-sim", "50",
               *opts])
    assert rc == 0
    assert (outdir / "mce_matrix.csv").read_bytes() == b",V1\r\nV1,0.000000\r\n"
    assert (outdir / "mce_edges.csv").read_bytes() == b"a,b,mce\r\n"
    manifest = json.loads((outdir / "manifest.json").read_text())
    listed = {str(Path(p).relative_to(outdir)): d
              for p, d in manifest["outputs"].items()}
    assert listed == _files(outdir)


def _three_feature_files(tmp_path, last: list[tuple[float, int]]):
    """75 records in V1 = 1..3 with mixed statuses, then the (time, status)
    records of ``last`` in V1 = 4; V2 and V3 are uniform."""
    rng = np.random.default_rng(3)
    rows = [(t, int(s), v1) for t, s, v1 in zip(
        rng.uniform(1, 10, 75), rng.uniform(size=75) < 0.7,
        np.repeat([1, 2, 3], 25))] + [(t, s, 4) for t, s in last]
    data = tmp_path / "three.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "status", "V1", "V2", "V3"])
        for i, (t, s, v1) in enumerate(rows):
            writer.writerow([i, repr(float(t)), s, v1, *rng.uniform(size=2)])
    config = tmp_path / "three.json"
    config.write_text(json.dumps({
        "time": "time", "status": "status", "id": "id",
        "features": ["V1", "V2", "V3"], "kinds": {"V1": "categorical"}}))
    return data, config


@pytest.mark.filterwarnings("ignore:.*may be unstable")
def test_zero_entropy_subcollection_has_header_only_expansion(tmp_path):
    rng = np.random.default_rng(4)
    data, config = _three_feature_files(
        tmp_path, [(t, 0) for t in rng.uniform(1, 10, 25)])
    outdir = tmp_path / "out"
    with pytest.warns(UserWarning, match="V1=4: response has zero entropy"):
        rc = main(["analyze", "--input", str(data), "--config", str(config),
                   "--outdir", str(outdir), "--no-cox", "--n-sim", "50",
                   "--subdivide", "V1", "--expand", "V2:V3"])
    assert rc == 0
    assert (outdir / "V1=4" / "ce_expansion.csv").read_bytes() == (
        b"series,category,rescaled_ce,raw_ce,mass,dominant_response\r\n")
    assert len((outdir / "V1=3" / "ce_expansion.csv").read_bytes()
               .splitlines()) > 1
    assert (outdir / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore:.*may be unstable")
def test_one_record_subcollection_has_header_only_null(tmp_path):
    data, config = _three_feature_files(tmp_path, [(5.0, 1)])
    outdir = tmp_path / "out"
    with pytest.warns(UserWarning, match="V1=4: fewer than 2 records"):
        rc = main(["analyze", "--input", str(data), "--config", str(config),
                   "--outdir", str(outdir), "--no-cox", "--n-sim", "50",
                   "--subdivide", "V1", "--reliability", "20"])
    assert rc == 0
    assert (outdir / "V1=4" / "reliability_null.csv").read_bytes() == (
        b"replicate,ce\r\n")
    with open(outdir / "V1=4" / "mfs_order1.csv", encoding="utf-8") as fh:
        assert [r["reliability_p"] for r in csv.DictReader(fh)] == ["", ""]
    with open(outdir / "V1=3" / "mfs_order1.csv", encoding="utf-8") as fh:
        assert all(r["reliability_p"] for r in csv.DictReader(fh))
    assert (outdir / "manifest.json").exists()


def test_all_event_sample_warns_and_skips_censor_test(tmp_path):
    rng = np.random.default_rng(8)
    data = tmp_path / "events.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "status", "V1", "V2"])
        for i in range(200):
            writer.writerow([i, repr(float(rng.uniform(1, 10))), 1,
                             *rng.uniform(size=2)])
    config = tmp_path / "events.json"
    config.write_text(json.dumps({"time": "time", "status": "status",
                                  "id": "id", "features": ["V1", "V2"]}))
    outdir = tmp_path / "out"
    with pytest.warns(UserWarning, match="whole sample: no censored records; "
                                         "censor test skipped"):
        rc = main(["analyze", "--input", str(data), "--config", str(config),
                   "--outdir", str(outdir), "--n-sim", "50"])
    assert rc == 0
    assert (outdir / "manifest.json").exists()
    assert not (outdir / "censor_test").exists()



def _edge_files(tmp_path, case: str) -> tuple[Path, Path]:
    """A V1, V2 sample (both uniform) of one degenerate shape."""
    rng = np.random.default_rng(11)
    records = {
        "all censored": [(t, 0) for t in rng.uniform(1, 10, 200)],
        "two records": [(3.0, 1), (5.0, 0)],
        "one distinct time": [(4.0, int(s))
                              for s in rng.uniform(size=200) < 0.5],
        "one record": [(4.0, 1)],
        "all events": [(t, 1) for t in rng.uniform(1, 10, 200)],
    }[case]
    data = tmp_path / "edge.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "status", "V1", "V2"])
        for i, (t, s) in enumerate(records):
            writer.writerow([i, repr(float(t)), s, *rng.uniform(size=2)])
    config = tmp_path / "edge.json"
    config.write_text(json.dumps({"time": "time", "status": "status",
                                  "id": "id", "features": ["V1", "V2"]}))
    return data, config


@pytest.mark.parametrize("command, opts", [
    ("analyze", ["--n-sim", "50", "--reliability", "20"]),
    ("cox", []),
    ("censor-test", ["--n-sim", "50"]),
])
@pytest.mark.parametrize("case", ["all censored", "two records",
                                  "one distinct time", "one record",
                                  "all events"])
def test_run_fails_before_output_or_finishes_with_manifest(tmp_path, case,
                                                           command, opts):
    """A degenerate sample either stops the run before it writes anything
    or the run finishes with a manifest that lists every file written;
    ``analyze`` skips, with a warning, the stage the sample cannot support."""
    data, config = _edge_files(tmp_path, case)
    outdir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--input", str(data), "--config", str(config),
                   "--outdir", str(outdir), *opts])
    if rc:
        assert not [p for p in outdir.rglob("*") if p.is_file()]
    else:
        manifest = json.loads((outdir / "manifest.json").read_text())
        listed = {str(Path(p).relative_to(outdir)): d
                  for p, d in manifest["outputs"].items()}
        assert listed == _files(outdir)
    if command == "censor-test" or (command, case) == ("cox", "all censored"):
        assert rc == 1
    skip = {"all censored": "no events; Cox fit skipped",
            "two records": "degenerate marginal; censor test skipped",
            "all events": "no censored records; censor test skipped",
            }.get(case)
    if command == "analyze" and skip:
        assert rc == 0
        assert f"whole sample: {skip}" in {str(w.message) for w in caught}


def test_binned_masses_and_categories_built_once_per_collection(
        tmp_path, monkeypatch):
    """The whole sample and each sub-collection build their categories and
    binned mass rows once, every stage reuses them, and every collection's
    mass rows are binned on the whole sample's time scheme."""
    owners = {"binned_row_masses": redistribution, "categorize_features": cli}
    calls = {name: [] for name in owners}

    def counted(name):
        original = getattr(owners[name], name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        return wrapper

    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counted(name))
    data = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "200", "--censor-rate", "0.3",
                 "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"time": "time", "status": "status",
                                  "id": "id", "features": ["V3", "V7", "V9"]}))
    outdir = tmp_path / "out"
    rc = main(["analyze", "--input", str(data), "--config", str(config),
               "--outdir", str(outdir), "--max-order", "1",
               "--reliability", "5", "--n-sim", "50", "--subdivide", "V9",
               "--expand", "V7:V3"])
    assert rc == 0
    n_subs = sum(1 for p in outdir.glob("V9=*") if p.is_dir())
    assert n_subs >= 2
    assert len(calls["categorize_features"]) == 1 + n_subs
    assert len(calls["binned_row_masses"]) == 1 + n_subs
    whole = calls["binned_row_masses"][0][2]
    assert all(args[2] is whole for args in calls["binned_row_masses"])


def test_shared_options_are_declared_alike():
    """An option that several subcommands accept has the same type, default,
    choices and help in each."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    seen: dict[str, dict] = {}
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                seen.setdefault(option, {})[command] = (
                    action.type, action.default, action.choices, action.help)
    shared = {o: by for o, by in seen.items() if len(by) > 1}
    assert {"--time-bins", "--time-binning", "--n-sim", "--subdivide",
            "--expand"} <= shared.keys()
    for option, by_command in shared.items():
        assert len(set(by_command.values())) == 1, (option, by_command)
