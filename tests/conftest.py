"""Shared fixtures: golden small datasets and the cached experiment runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from survent import (
    Dataset,
    SimConfig,
    calibrate_censor_rate,
    categorize_features,
    equal_width_bins,
    fit,
    generate,
    run_mfs,
)


@pytest.fixture
def golden10() -> Dataset:
    """Ten ordered subjects with censorings at ordered positions 3, 6, 8."""
    delta = np.ones(10, dtype=int)
    delta[[2, 5, 7]] = 0
    return Dataset(y=np.arange(1.0, 11.0), delta=delta)


def make_random_dataset(seed: int, n: int = 60, n_features: int = 3,
                        censor_frac: float = 0.35) -> Dataset:
    rng = np.random.default_rng(seed)
    T = rng.exponential(1.0, n)
    C = rng.exponential(1.0 / censor_frac * 0.5, n)
    X = rng.uniform(0, 1, (n, n_features))
    return Dataset(y=np.minimum(T, C), delta=(T <= C).astype(int), X=X)


def make_tied_dataset(seed: int, n: int, n_features: int = 3) -> Dataset:
    """Random sample on a quarter-unit time grid.

    Censored times tie with event times and with each other.  One censored
    record is set to an event's time outright, so ties exist even at small
    n.  The largest time is shared by one event and two censored records,
    so the trailing-censored promotion runs as a chain.
    """
    ds = make_random_dataset(seed, n=n, n_features=n_features)
    y = np.round(ds.y * 4) / 4
    delta = np.array(ds.delta)
    top = np.argsort(y, kind="stable")[-3:]
    y[top] = y.max() + 0.25
    delta[top] = (1, 0, 0)
    rest = np.setdiff1d(np.arange(n), top)
    delta[rest[:2]] = (1, 0)
    y[rest[1]] = y[rest[0]]
    return Dataset(y=y, delta=delta, X=ds.X)


@pytest.fixture
def random_dataset() -> Dataset:
    return make_random_dataset(0)


NOISE_FEATURES = ("V4", "V5", "V6", "V8", "V9", "V10")
EXPERIMENT_SEEDS = tuple(range(20))
CENSOR_TARGETS = (0.1, 0.2, 0.3)


@dataclass
class ExperimentRun:
    seed: int
    censor_target: float
    h_response: float
    reports: dict
    cox: object


@dataclass
class ExperimentBattery:
    """All (censoring-target, seed) runs used by the acceptance suite."""

    runs: dict[tuple[float, int], ExperimentRun]
    rates: dict[float, float]
    duration: float = 0.0

    def at(self, target: float) -> list[ExperimentRun]:
        return [self.runs[(target, s)] for s in EXPERIMENT_SEEDS]


def _run_experiment(target: float, rate: float, seed: int) -> ExperimentRun:
    config = SimConfig(n=10_000, censor_rate=rate, seed=seed, n_features=10)
    ds = generate(config)
    # ten uniform response bins over the observed times, as the analyze
    # pipeline would choose them; redistribution fills in the mass
    scheme = equal_width_bins(ds.y, 10)
    cats = categorize_features(ds, n_bins=10)
    reports = run_mfs(ds, scheme, cats=cats, max_order=3)
    cox = fit(ds)
    return ExperimentRun(seed, target, reports[1].h_response, reports, cox)


@pytest.fixture(scope="session")
def experiment_battery() -> ExperimentBattery:
    import time
    import warnings

    start = time.perf_counter()
    rates = {}
    runs = {}
    base = SimConfig(n=10, censor_rate=1.0)  # carrier for shape/rate params
    with warnings.catch_warnings():
        # order-3 composite levels trip the event-count guard by design here
        warnings.simplefilter("ignore", UserWarning)
        for target in CENSOR_TARGETS:
            rates[target] = calibrate_censor_rate(base, target=target,
                                                  pilot_n=150_000)
            for seed in EXPERIMENT_SEEDS:
                runs[(target, seed)] = _run_experiment(target, rates[target],
                                                       seed)
    return ExperimentBattery(runs=runs, rates=rates,
                             duration=time.perf_counter() - start)
