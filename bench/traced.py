"""Run the survent CLI with its layer functions wrapped in timing spans.

    python3 bench/traced.py SPANS.json -- <survent arguments>

Each listed function is replaced, in every ``survent`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent).  Nested
calls such as ``run_mfs`` -> ``fuse_categories`` therefore produce nested
spans.  Counters are read from return values.  Spans and counters stay in
memory and are written to SPANS.json when the CLI returns; the program's own
files are not changed.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402

import survent.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

# (module, attribute, span name); "Class.method" wraps a method in place
LAYERS = [
    ("binning", "categorize", "binning.categorize"),
    ("censor_test", "run_censor_test", "censor_test.run_censor_test"),
    ("censor_test", "CensorTestResult.write", "censor_test.write"),
    ("cli", "main", "cli.main"),
    ("cli", "Manifest.add_input", "cli.manifest"),
    ("cli", "Manifest.add_outputs", "cli.manifest"),
    ("cli", "Manifest.write", "cli.manifest"),
    ("contingency", "censor_cross_table", "contingency.censor_cross_table"),
    ("contingency", "fuse_categories", "contingency.fuse_categories"),
    ("contingency", "table_from_binned", "contingency.table_from_binned"),
    ("contingency", "table_from_weights", "contingency.table_from_weights"),
    ("contingency", "table_plain", "contingency.table_plain"),
    ("coxph", "fit", "coxph.fit"),
    ("data", "ingest_csv", "data.ingest_csv"),
    ("entropy", "conditional_entropy", "entropy.conditional_entropy"),
    ("entropy", "mutual_information", "entropy.mutual_information"),
    ("entropy", "conditional_mutual_information",
     "entropy.conditional_mutual_information"),
    ("mfs", "categorize_features", "mfs.categorize_features"),
    ("mfs", "ce_expansion", "mfs.ce_expansion"),
    ("mfs", "mce_matrix", "mfs.mce_matrix"),
    ("mfs", "reliability_null", "mfs.reliability_null"),
    ("mfs", "run_mfs", "mfs.run_mfs"),
    ("mfs", "subdivide", "mfs.subdivide"),
    ("redistribution", "binned_row_masses",
     "redistribution.binned_row_masses"),
    ("redistribution", "build_cross_weight_matrix",
     "redistribution.build_cross_weight_matrix"),
    ("simgen", "calibrate_censor_rate", "simgen.calibrate_censor_rate"),
    ("simgen", "generate", "simgen.generate"),
    ("simgen", "write_dataset_csv", "simgen.write_dataset_csv"),
]


def _censor_test_counts(result):
    axes = (result.rows, result.cols)
    drawn = sum(s.size for a in axes
                for s in (*a.null_samples, *a.alt_samples) if s is not None)
    return {"censor_test.samples_drawn": drawn,
            "censor_test.skipped": sum(len(a.skipped) for a in axes)}


# counters read from a layer's return value; summed over calls
COUNTS = {
    "redistribution.build_cross_weight_matrix":
        lambda w: {"redistribution.cross_weight_cells": w.weights.size},
    "mfs.run_mfs":
        lambda reports: {"mfs.feature_sets":
                         sum(len(r.records) for r in reports.values())},
    "censor_test.run_censor_test": _censor_test_counts,
    "coxph.fit": lambda f: {"coxph.iterations": f.iterations,
                            "coxph.converged": int(f.converged)},
    "data.ingest_csv": lambda ds: {"data.ingest_csv.rows": ds.n},
}


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class _RssPeak:
    """Highest resident-set growth seen while a block runs, sampled every
    10 ms (sampling faster makes the sampler contend for the GIL).

    tracemalloc would be exact but slows the Cox fitter's many small
    allocations several-fold, which would distort its span times.
    """

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(0.01):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        self.growth = self.peak - self.base


class _TracedPeak:
    """Peak traced allocation inside a block (tracemalloc)."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.growth = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


# spans whose peak memory is recorded, and how
PEAKS = {"contingency.censor_cross_table": _TracedPeak, "coxph.fit": _RssPeak}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        peak = PEAKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                if peak is None:
                    result = fn(*args, **kwargs)
                else:
                    with peak() as mem:
                        result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if peak is not None:
                key = f"{name}.peak_mb"
                self.counters[key] = max(self.counters.get(key, 0.0),
                                         mem.growth / 2**20)
            if count is not None:
                for key, value in count(result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "survent" or name.startswith("survent.")]
        for modname, attr, name in LAYERS:
            owner = sys.modules[f"survent.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json -- <survent arguments>")
    tracer = Tracer()
    tracer.install()
    try:
        return survent.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
