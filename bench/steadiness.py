#!/usr/bin/env python3
"""Steadiness check: sets of benchmark runs of the same code, compared.

    python3 bench/steadiness.py --workload analyze-3k --runs 10 --sets 2

Each set runs bench/run.py once per seed 1..runs with the run_seconds of
BENCHMARK.json.  For every end-to-end metric it prints, per set, the median
and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  It then prints each
later set's median change against the first set's.  The exit code is 1 when
a spread (setup_s excepted) or a median change exceeds the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs failed their checks\n"
                         + proc.stdout)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    spec = run.load_spec()

    sets = []
    for s in range(args.sets):
        rows = []
        for seed in range(1, args.runs + 1):
            rows.append(one_run(args.workload, seed, spec["run_seconds"]))
            print(f"set {s + 1} seed {seed}: "
                  + ", ".join(f"{k}={v:.4f}" for k, v in rows[-1].items()),
                  flush=True)
        sets.append(rows)

    ok = True
    report = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        medians, spreads = [], []
        for rows in sets:
            values = [r[name] for r in rows]
            medians.append(statistics.median(values))
            spreads.append(spread(values))
        changes = [(m - medians[0]) / medians[0] * (1 if lower else -1)
                   for m in medians[1:]]
        spread_ok = name == "setup_s" or max(spreads) <= bound
        change_ok = all(c <= bound for c in changes)
        ok &= spread_ok and change_ok
        report[name] = {"bound": bound, "medians": medians,
                        "spreads": spreads, "worse_by": changes}
        print(f"{args.workload} {name}: bound {bound}; medians "
              + ", ".join(f"{m:.4f}" for m in medians) + "; spreads "
              + ", ".join(f"{s:.4f}" for s in spreads)
              + f" (bound/3 = {bound / 3:.4f}); second set worse by "
              + ", ".join(f"{c:+.4f}" for c in changes)
              + ("" if spread_ok and change_ok else "  <-- exceeds bound"))
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "metrics": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
