#!/usr/bin/env python3
"""Write reference digests of a workload's outputs, one per seed.

    python3 bench/make_refs.py --workload analyze-3k --seeds 0-19

Run it at the commit whose outputs are the reference.  Each seed's input is
simulated, the workload's command runs once, its outputs must pass the
invariants of check.py, and their digest is stored in
bench/refs/<workload>.json (one seed per line; seeds already there are
replaced).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import check
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-19")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    path = run.REFS / f"{args.workload}.json"
    refs = check.load_refs(path)
    for seed in seeds:
        work = (run.ROOT / ".bench_work"
                / f"refs-{args.workload}-{seed}-{os.getpid()}")
        try:
            wl = run.Workload(args.workload, seed, work)
            wl.setup(1)
            inv = wl.invoke()
            errors = run.verify(inv, {}, seed)
            if errors:
                print(f"seed {seed}: {errors}", file=sys.stderr)
                return 1
            refs[str(seed)] = check.rounded(check.digest(inv["out"]))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"seed {seed}: {inv['wall']:.1f} s", flush=True)

    path.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], separators=(',', ':'))}"
             for k in sorted(refs, key=int)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
