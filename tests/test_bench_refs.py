"""The CLI reproduces the benchmark's reference outputs.

Each benchmarked workload's input is simulated at the reference seed and its
command run in process, with the arguments ``bench/run.py`` uses; the outputs
must pass ``bench/check.py``'s invariants and match ``bench/refs`` within its
tolerances.
"""

from __future__ import annotations

import ast
import csv
import importlib.util
import json
from pathlib import Path

import pytest

from survent.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = "0"


def _workloads() -> dict:
    """``WORKLOADS`` as written in the harness, read without importing it."""
    run_py = BENCH / "run.py"
    for node in ast.parse(run_py.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WORKLOADS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WORKLOADS dict in {run_py}")


def _check_module():
    spec = importlib.util.spec_from_file_location("bench_check",
                                                  BENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
check = _check_module()


@pytest.mark.filterwarnings("ignore:.*composite categories:UserWarning")
@pytest.mark.parametrize("workload", ["analyze-3k", "screen-10k"])
def test_outputs_match_reference(workload, tmp_path):
    n, censor_rate, command = WORKLOADS[workload]
    data = tmp_path / "data.csv"
    assert main(["simulate", "--n", str(n), "--censor-rate", str(censor_rate),
                 "--seed", SEED, "--out", str(data)]) == 0
    with open(data, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "version": 1, "time": "time", "status": "status", "id": "id",
        "features": header[3:]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command[0], "--input", str(data), "--config", str(config),
                 "--outdir", str(out), "--seed", SEED, *command[1:]]) == 0

    dig = check.digest(out)
    assert check.invariants(out, dig) == []
    refs = check.load_refs(BENCH / "refs" / f"{workload}.json")
    assert check.compare(dig, refs[SEED]) == []
