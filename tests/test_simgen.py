"""Generator: closed-form inversion, marginal law, calibration."""

from __future__ import annotations

import numpy as np
import pytest

from survent import (
    CalibrationError,
    SimConfig,
    calibrate_censor_rate,
    categorize,
    generate,
    invert_reserve,
    km_estimate,
    km_quantile_bins,
    write_dataset_csv,
)


def test_inversion_unit_case():
    # zero exponent, unit reserve: the event fires exactly at time 1
    t = invert_reserve(np.array([1.0]), np.array([0.0]), 1.5)
    assert t[0] == pytest.approx(1.0, abs=1e-15)


def test_inversion_monotone_in_exponent():
    u = np.full(50, 0.7)
    etas = np.linspace(-1.0, 3.0, 50)
    t = invert_reserve(u, etas, 1.5)
    assert np.all(np.diff(t) < 0)  # faster exhaustion, earlier event


def test_status_matches_hidden_truth():
    ds = generate(SimConfig(n=500, censor_rate=0.5, seed=3))
    T, C = ds.hidden["true_t"], ds.hidden["true_c"]
    np.testing.assert_array_equal(ds.delta, (T <= C).astype(int))
    np.testing.assert_allclose(ds.y, np.minimum(T, C))


def test_zero_exponent_marginal_survival():
    """With the exponent forced to zero the event-time law is explicit:
    Pr[T > t] = exp(-u_rate * t^k).  Kolmogorov distance of the empirical
    survival should be small at this sample size."""
    rng = np.random.default_rng(10)
    n = 10_000
    u = rng.exponential(1 / 1.5, n)
    t = invert_reserve(u, np.zeros(n), 1.5)
    ts = np.sort(t)
    emp = 1.0 - np.arange(1, n + 1) / n
    analytic = np.exp(-1.5 * ts**1.5)
    assert np.abs(emp - analytic).max() < 0.02


def test_generated_censoring_fraction_near_target():
    rate = calibrate_censor_rate(SimConfig(n=10, censor_rate=1.0), target=0.1,
                                 pilot_n=150_000)
    fracs = []
    for seed in range(20):
        ds = generate(SimConfig(n=10_000, censor_rate=rate, seed=seed))
        fracs.append(ds.n_c / ds.n)
    assert abs(np.mean(fracs) - 0.1) < 0.01


def test_calibrated_rates_increase_with_target():
    base = SimConfig(n=10, censor_rate=1.0)
    rates = [calibrate_censor_rate(base, target=t, pilot_n=60_000)
             for t in (0.1, 0.2, 0.3)]
    assert rates[0] < rates[1] < rates[2]


def test_calibration_fixed_point():
    base = SimConfig(n=10, censor_rate=1.0)
    rate = calibrate_censor_rate(base, target=0.2, tol=0.002, pilot_n=200_000)
    ds = generate(SimConfig(n=200_000, censor_rate=rate, seed=99))
    assert abs(ds.n_c / ds.n - 0.2) < 0.006  # tol + independent-pilot noise


def test_calibration_rejects_extreme_targets():
    base = SimConfig(n=10, censor_rate=1.0)
    with pytest.raises(ValueError):
        calibrate_censor_rate(base, target=0.001)
    with pytest.raises(ValueError):
        calibrate_censor_rate(base, target=1.0)
    with pytest.raises(ValueError):
        SimConfig(n=100, censor_target=1.2)
    with pytest.raises(ValueError):
        SimConfig(n=100)  # neither target nor rate


def test_calibration_error_when_iterations_exhausted():
    base = SimConfig(n=10, censor_rate=1.0)
    with pytest.raises(CalibrationError):
        calibrate_censor_rate(base, target=0.3, tol=1e-9, pilot_n=5000,
                              max_iter=3)


def test_deterministic_regeneration():
    a = generate(SimConfig(n=300, censor_rate=0.4, seed=12))
    b = generate(SimConfig(n=300, censor_rate=0.4, seed=12))
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.X, b.X)


def test_noise_features_do_not_drive_event_times():
    ds = generate(SimConfig(n=4000, censor_rate=0.3, seed=5))
    T = ds.hidden["true_t"]
    # holding the reserve draw fixed, the event time is a function of
    # (V1, V2, V3, V7) only: check rank correlation with noise features is nil
    for name in ("V4", "V5", "V6", "V8", "V9", "V10"):
        r = np.corrcoef(ds.feature(name), np.log(T))[0, 1]
        assert abs(r) < 0.05


def test_km_quantile_bins_on_generated_data():
    rate = calibrate_censor_rate(SimConfig(n=10, censor_rate=1.0), target=0.1,
                                 pilot_n=60_000)
    ds = generate(SimConfig(n=10_000, censor_rate=rate, seed=0))
    scheme = km_quantile_bins(ds, 10)
    km = km_estimate(ds)
    codes, _ = categorize(np.asarray(km.jump_times), scheme)
    masses = np.zeros(10)
    for code, size in zip(codes, km.jump_sizes):
        masses[code - 1] += size
    assert np.all(np.abs(masses - 0.1) <= 0.02)


def test_write_csv_with_sidecar(tmp_path):
    ds = generate(SimConfig(n=50, censor_rate=0.4, seed=1))
    out = tmp_path / "sim.csv"
    written = write_dataset_csv(ds, out)
    assert out.exists() and written[1].name == "sim.csv.meta.json"
    import json

    side = json.loads(written[1].read_text())
    assert side["n"] == 50 and "censor_rate_used" in side
