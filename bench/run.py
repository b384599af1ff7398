#!/usr/bin/env python3
"""survent benchmark: the real CLI, run in fresh child processes.

    python3 bench/run.py --workload analyze-3k --seed 0 --seconds 30 --trace 0

Set-up makes the workload's input with ``survent simulate`` from ``--seed``,
several times, and reports the median as ``setup_s``.  Then the workload's
command runs back to back, one invocation at a time (closed loop, one
client), for ``--seconds`` and at least once.  Every invocation's outputs are
checked (check.py).  With ``--trace 1`` each round is a plain invocation
followed by one under bench/traced.py, and the per-layer metrics come from
the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"
THREADS = 1  # BLAS/OpenMP threads in every child; at most nproc
SETUP_REPEATS = 5  # simulate runs per benchmark run; setup_s is their median
CHILD_LIMIT_S = 170  # an invocation still running then is killed and fails
REFERENCE_SEED = "0"
FEATURES = [f"V{j}" for j in range(1, 11)]

# name: (n, censored share, survent command and its options)
WORKLOADS = {
    "analyze-3k": (3000, 0.3, [
        "analyze", "--max-order", "2", "--reliability", "200",
        "--subdivide", "V9", "--expand", "V7:V3,V3+V6"]),
    "screen-10k": (10_000, 0.2, [
        "mfs", "--max-order", "3", "--time-bins", "10", "--feature-bins", "10",
        "--reliability", "200"]),
    # not in BENCHMARK.json: one invocation takes 85-120 s at the seed
    # commit (NOTES.md); run it by hand with --seed 0
    "cox-30k": (30_000, 0.5, ["cox"]),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(THREADS)
    return env


def spawn(cmd: list[str], env: dict, log: Path):
    """Run one child to its exit: (exit code, wall s, cpu s, peak RSS MiB).

    Wall time runs from spawn to exit; CPU time and peak RSS come from the
    child's own resource usage (wait4).
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "survent.cli", *map(str, args)]


def traced_cli(spans: Path, *args) -> list[str]:
    return [sys.executable, str(BENCH / "traced.py"), str(spans), "--",
            *map(str, args)]


class Workload:
    """Inputs and invocations of one workload in a private work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.n, self.censor_rate, self.command = WORKLOADS[name]
        self.env = child_env()
        self.data = work / "data.csv"
        self.config = work / "config.json"
        self.count = 0

    def simulate_args(self) -> list:
        return ["simulate", "--n", self.n, "--censor-rate", self.censor_rate,
                "--seed", self.seed, "--out", self.data]

    def setup(self, repeats: int) -> list[float]:
        """Make the input ``repeats`` times; the wall time of each."""
        self.work.mkdir(parents=True)
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "time": "time", "status": "status",
                       "id": "id", "features": FEATURES}, fh)
        times = []
        for i in range(repeats):
            rc, wall, _, _ = spawn(cli(*self.simulate_args()), self.env,
                                   self.work / f"simulate-{i}.log")
            if rc != 0:
                raise BenchError(f"survent simulate exited with {rc}")
            times.append(wall)
        return times

    def trace_setup(self) -> dict:
        spans = self.work / "simulate-spans.json"
        rc, *_ = spawn(traced_cli(spans, *self.simulate_args()), self.env,
                       self.work / "simulate-traced.log")
        if rc != 0:
            raise BenchError(f"traced survent simulate exited with {rc}")
        return _load_json(spans)

    def invoke(self, traced: bool = False) -> dict:
        """One CLI invocation; its resource use, outputs and spans."""
        self.count += 1
        out = self.work / f"out-{self.count}"
        args = [self.command[0], "--input", self.data, "--config",
                self.config, "--outdir", out, "--seed", self.seed,
                *self.command[1:]]
        spans = self.work / f"spans-{self.count}.json"
        cmd = traced_cli(spans, *args) if traced else cli(*args)
        rc, wall, cpu, rss = spawn(cmd, self.env,
                                   self.work / f"run-{self.count}.log")
        return {"rc": rc, "wall": wall, "cpu": cpu, "rss": rss, "out": out,
                "bytes": bytes_written(out) if out.is_dir() else 0,
                "trace": _load_json(spans) if traced and rc == 0 else None}


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify(inv: dict, refs: dict, seed: int) -> list[str]:
    """Failures of one invocation: exit code, invariants, reference."""
    if inv["rc"] != 0:
        return [f"exit code {inv['rc']}"]
    try:
        dig = check.digest(inv["out"])
        errors = check.invariants(inv["out"], dig)
        ref = refs.get(str(seed))
        if ref is not None:
            errors += check.compare(dig, ref)
        elif REFERENCE_SEED in refs and set(dig) != set(refs[REFERENCE_SEED]):
            errors.append("output file set differs from the reference seed's")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors = [f"outputs could not be read: {exc!r}"]
    return errors


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def span_stats(trace: dict) -> dict:
    """Self time, total time and calls per span name, plus the counters."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        for stat, value in (("self_s", end - start - covered[i]),
                            ("total_s", end - start), ("calls", 1)):
            key = f"{name}.{stat}"
            stats[key] = stats.get(key, 0) + value
    stats.update(trace["counters"])
    return stats


def layer_metrics(sim_trace: dict, plain: dict, traced: dict) -> dict:
    """Per-layer figures of one traced invocation (simgen from set-up)."""
    stats = {k: v for k, v in span_stats(traced["trace"]).items()
             if not k.startswith("simgen.")}
    stats.update({k: v for k, v in span_stats(sim_trace).items()
                  if k.startswith("simgen.")})
    stats["cli.import_s"] = traced["trace"]["import_s"]
    stats["cli.bytes_written"] = traced["bytes"]
    stats["trace.overhead_s"] = traced["wall"] - plain["wall"]
    iterations = stats.get("coxph.iterations", 0)
    stats["coxph.fit.s_per_iteration"] = (
        stats.get("coxph.fit.total_s", 0.0) / iterations if iterations else 0.0)
    ingest = stats.get("data.ingest_csv.self_s", 0.0)
    stats["data.ingest_csv.rows_per_s"] = (
        stats.get("data.ingest_csv.rows", 0) / ingest if ingest else 0.0)
    return stats


def environment(env: dict) -> dict:
    """Machine and software facts; also checks which survent is imported."""
    probe = subprocess.run(
        [sys.executable, "-c", "import json, numpy, survent; "
         "print(json.dumps([numpy.__version__, survent.__file__]))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise BenchError("cannot import survent from src/: "
                         + probe.stderr.strip()[-300:])
    numpy_version, survent_file = json.loads(probe.stdout)
    if not Path(survent_file).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"survent imported from {survent_file}, not src/")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "survent").glob("*.py")):
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy_version,
            "blas_threads": THREADS, "commit": commit,
            "src_sha256": src.hexdigest()[:16]}


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError("BENCHMARK.json not found")
    if not (ROOT / "src" / "survent" / "cli.py").is_file():
        raise BenchError("survent sources not found under src/")
    return _load_json(spec_path)


def run(args) -> dict:
    spec = load_spec()
    refs = check.load_refs(REFS / f"{args.workload}.json")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = Workload(args.workload, args.seed, work)
    env_facts = environment(wl.env)
    try:
        setup_times = wl.setup(SETUP_REPEATS)
        sim_trace = wl.trace_setup() if args.trace else None
        # start another round only if it should end within --seconds;
        # outputs are checked after the measured time
        rounds, durations = [], []
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start
                             + median(durations) <= args.seconds):
            t0 = time.perf_counter()
            rounds.append([wl.invoke()] + ([wl.invoke(traced=True)]
                                           if args.trace else []))
            durations.append(time.perf_counter() - t0)
        failures = []
        for i, inv in enumerate(inv for r in rounds for inv in r):
            errors = verify(inv, refs, args.seed)
            failures += [f"invocation {i + 1}: {e}" for e in errors]
            inv["ok"] = not errors
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    invocations = [inv for r in rounds for inv in r]
    failed = sum(not inv["ok"] for inv in invocations)
    plain = [r[0] for r in rounds]
    if args.trace:
        wanted = spec["per_layer"]
        per_round = [layer_metrics(sim_trace, r[0], r[1]) for r in rounds
                     if r[1]["trace"] is not None]
        values = {m["name"]: median([s.get(m["name"], 0.0)
                                      for s in per_round]) if per_round
                  else 0.0 for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": median(inv["wall"] for inv in plain),
            "cpu_s": median(inv["cpu"] for inv in plain),
            "peak_rss_mb": median(inv["rss"] for inv in plain),
            "setup_s": median(setup_times),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    walls = [inv["wall"] for inv in plain]
    n, share, command = WORKLOADS[args.workload]
    print(f"workload {args.workload}, seed {args.seed}: n={n}, censored share "
          f"{share}; `survent {' '.join(command)}`; closed loop, 1 client")
    print(f"setup_s: median of {len(setup_times)} simulate runs "
          f"{median(setup_times):.4f} s (min {min(setup_times):.4f}, "
          f"max {max(setup_times):.4f})")
    print(f"wall_s: median of {len(walls)} plain invocations "
          f"{median(walls):.4f} s (min {min(walls):.4f}, max {max(walls):.4f})"
          + (f"; plus {len(rounds)} traced" if args.trace else ""))
    print(f"error_rate: {failed}/{len(invocations)} invocations failed")
    ref_kind = ("reference digest for this seed" if str(args.seed) in refs
                else "invariants only (no reference digest for this seed)")
    print(f"check: {ref_kind}")
    for line in failures[:20]:
        print(f"  FAIL {line}")
    print(f"environment: {json.dumps(env_facts)}")
    return {"correct": failed == 0, "attempted": len(invocations),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
