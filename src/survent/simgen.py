"""Synthetic right-censored survival data from a reserve-exhaustion model.

Each subject draws a latent reserve ``U ~ Exp(u_rate)`` that is consumed at
rate ``exp(V1 + sin(2*pi*(V2 + V3)) + V7^2) * lambda0(t)`` with a Weibull
baseline ``lambda0(t) = k * t**(k-1)``; the event happens when the reserve
runs out.  Because the covariates are time-fixed the defining integral
equation inverts in closed form, ``T = (U * exp(-eta)) ** (1/k)``.  The
sine term couples V2 and V3 in a way deliberately outside the
product-interaction family, and V4..V10 are pure noise.

Censoring times are exponential; their rate is calibrated by bisection to
hit a requested censoring fraction.  ``Exp(rate)`` notation is used
throughout (mean ``1/rate``); with everything scale-free downstream this
choice only stretches the time axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset

_ETA_COLUMNS = (0, 1, 2, 6)  # V1, V2, V3, V7


class CalibrationError(RuntimeError):
    """Censoring-rate calibration failed to converge."""


@dataclass(frozen=True)
class SimConfig:
    n: int
    k_shape: float = 1.5
    u_rate: float = 1.5
    censor_target: float | None = None
    censor_rate: float | None = None
    n_features: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k_shape <= 0 or self.u_rate <= 0:
            raise ValueError("shape and reserve rate must be positive")
        if self.n_features < 7:
            raise ValueError("the exhaustion exponent uses V1, V2, V3 and V7;"
                             " need at least 7 features")
        if self.censor_target is not None:
            if not 0.005 <= self.censor_target < 1:
                raise ValueError("censor_target must lie in [0.005, 1)")
        if self.censor_target is None and self.censor_rate is None:
            raise ValueError("give censor_target or censor_rate")
        if self.censor_rate is not None and self.censor_rate <= 0:
            raise ValueError("censor_rate must be positive")


def exhaustion_exponent(V: np.ndarray) -> np.ndarray:
    """eta = V1 + sin(2*pi*(V2 + V3)) + V7^2 for a covariate matrix."""
    c1, c2, c3, c7 = (V[:, j] for j in _ETA_COLUMNS)
    return c1 + np.sin(2.0 * np.pi * (c2 + c3)) + c7**2


def invert_reserve(u: np.ndarray, eta: np.ndarray,
                   k_shape: float) -> np.ndarray:
    """Event time solving  u = exp(eta) * integral_0^T k t^(k-1) dt.

    The exponent is time-fixed, so the inverse is analytic.
    """
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return (u * np.exp(-eta)) ** (1.0 / k_shape)


def generate(config: SimConfig) -> Dataset:
    """Draw a dataset; hidden columns carry the true event/censoring times."""
    rate = config.censor_rate
    if rate is None:
        rate = calibrate_censor_rate(config)
    rng = np.random.default_rng(config.seed)
    V = rng.uniform(0.0, 1.0, size=(config.n, config.n_features))
    U = rng.exponential(1.0 / config.u_rate, size=config.n)
    T = invert_reserve(U, exhaustion_exponent(V), config.k_shape)
    C = rng.exponential(1.0 / rate, size=config.n)
    Y = np.minimum(T, C)
    delta = (T <= C).astype(np.int8)
    return Dataset(
        y=Y,
        delta=delta,
        X=V,
        feature_names=[f"V{j + 1}" for j in range(config.n_features)],
        ids=[f"s{i + 1}" for i in range(config.n)],
        hidden={"true_t": T, "true_c": C},
        meta={"sim_config": {**config.__dict__}, "censor_rate_used": rate},
    )


def calibrate_censor_rate(config: SimConfig, target: float | None = None,
                          tol: float = 0.002, pilot_n: int = 200_000,
                          pilot_seed: int = 1_058_913, max_iter: int = 200
                          ) -> float:
    """Exponential censoring rate hitting the target censored fraction.

    A single pilot sample of event times and standard-exponential censoring
    draws is reused for every rate probed (a rate only rescales the
    censoring draws), so the censored fraction is exactly monotone in the
    rate and bisection is clean.  The initial bracket widens automatically.
    """
    target = config.censor_target if target is None else target
    if target is None:
        raise ValueError("no censoring target given")
    if not 0.005 <= target < 1:
        raise ValueError("target must lie in [0.005, 1)")
    rng = np.random.default_rng(pilot_seed)
    V = rng.uniform(0.0, 1.0, size=(pilot_n, config.n_features))
    U = rng.exponential(1.0 / config.u_rate, size=pilot_n)
    T = invert_reserve(U, exhaustion_exponent(V), config.k_shape)
    C1 = rng.exponential(1.0, size=pilot_n)

    def censored_fraction(rate: float) -> float:
        return float(np.mean(C1 / rate < T))

    lo, hi = 1e-9, 1.0
    grow = 0
    while censored_fraction(hi) < target:
        hi *= 4.0
        grow += 1
        if grow > 60:
            raise CalibrationError("could not bracket the target from above")
    for _ in range(max_iter):
        mid = np.sqrt(lo * hi)
        frac = censored_fraction(mid)
        if abs(frac - target) <= tol:
            return float(mid)
        if frac < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"no rate within tolerance {tol} of target {target} after "
        f"{max_iter} iterations"
    )


def write_dataset_csv(dataset: Dataset, path: str | Path) -> list[Path]:
    """Write the standard CSV schema plus a sidecar with the run config."""
    path = Path(path)
    dataset.to_csv(path)
    side = path.with_suffix(path.suffix + ".meta.json")
    payload = {
        "n": dataset.n,
        "n_events": dataset.n_u,
        "n_censored": dataset.n_c,
        "features": list(dataset.feature_names),
    }
    payload.update({k: v for k, v in dataset.meta.items()
                    if k in ("sim_config", "censor_rate_used")})
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return [path, side]
