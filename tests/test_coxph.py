"""Hazard-regression fitter against closed forms and brute-force maximizers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from survent import Dataset, SimConfig, fit, generate, partial_loglik
from survent import coxph

from conftest import make_random_dataset, make_tied_dataset


def brute_partial_loglik(beta: np.ndarray, y, delta, X) -> float:
    """Explicitly summed partial likelihood with full-risk-set ties."""
    ll = 0.0
    for i in range(len(y)):
        if delta[i] != 1:
            continue
        risk = [j for j in range(len(y)) if y[j] >= y[i]]
        denom = sum(math.exp(float(X[j] @ beta)) for j in risk)
        ll += float(X[i] @ beta) - math.log(denom)
    return ll


def loop_loglik_parts(beta: np.ndarray, ds: Dataset):
    """Reference Breslow sums: one event-time group at a time, with the
    n x p x p tensor of outer products for the Hessian."""
    order = np.argsort(ds.y, kind="stable")
    y, d, Xs = ds.y[order], ds.delta[order].astype(bool), ds.X[order]
    n, p = Xs.shape
    first_idx = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        first_idx[i] = first_idx[i - 1] if y[i] == y[i - 1] else i
    xb = Xs @ beta
    xb -= xb.max()
    w = np.exp(xb)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((Xs * w[:, None])[::-1], axis=0)[::-1]
    outer = Xs[:, :, None] * Xs[:, None, :] * w[:, None, None]
    s2 = np.cumsum(outer[::-1], axis=0)[::-1]
    ll, grad, hess = 0.0, np.zeros(p), np.zeros((p, p))
    for t in np.unique(y[d]):
        events = np.flatnonzero(d & (y == t))
        start = first_idx[events[0]]
        xbar = s1[start] / s0[start]
        ll += float(xb[events].sum()) - events.size * math.log(s0[start])
        grad += Xs[events].sum(axis=0) - events.size * xbar
        hess -= events.size * (s2[start] / s0[start] - np.outer(xbar, xbar))
    return ll, grad, hess


@pytest.mark.parametrize("make", [make_random_dataset, make_tied_dataset],
                         ids=["random", "tied"])
@pytest.mark.parametrize("n", [10, 300, 3000])
def test_kernel_matches_per_group_loop(make, n):
    # the tied samples carry a censored/event tie at a risk-set start
    ds = make(7, n=n, n_features=4)
    _, X = coxph._design(ds, None)
    prep = coxph._prepare(ds, X)
    rng = np.random.default_rng(n)
    for beta in (np.zeros(4), rng.normal(0, 1, 4), rng.normal(0, 3, 4)):
        ll, grad, hess = coxph._loglik_parts(beta, *prep, want_hessian=True)
        ll_ref, grad_ref, hess_ref = loop_loglik_parts(beta, ds)
        assert ll == pytest.approx(ll_ref, rel=1e-12)
        np.testing.assert_allclose(grad, grad_ref, rtol=0, atol=1e-9)
        scale = np.abs(hess_ref).max()
        np.testing.assert_allclose(hess, hess_ref, rtol=0, atol=1e-12 * scale)
        ll_only, grad_only, none = coxph._loglik_parts(beta, *prep,
                                                       want_hessian=False)
        assert none is None and ll_only == ll
        np.testing.assert_array_equal(grad_only, grad)


def test_loglik_at_zero_closed_form():
    ds = make_random_dataset(1, n=40, n_features=2)
    ll, _ = partial_loglik([0.0, 0.0], ds)
    # at beta = 0 each distinct event time contributes -d_t * log(risk size)
    y, d = ds.y, ds.delta
    expected = 0.0
    for t in np.unique(y[d == 1]):
        d_t = int(((y == t) & (d == 1)).sum())
        expected -= d_t * math.log(int((y >= t).sum()))
    assert ll == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_loglik_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = 8
    y = rng.uniform(0, 1, n)
    delta = rng.integers(0, 2, n)
    delta[rng.integers(0, n)] = 1
    X = rng.normal(0, 1, (n, 2))
    ds = Dataset(y=y, delta=delta, X=X)
    beta = rng.normal(0, 0.8, 2)
    ll, _ = partial_loglik(beta, ds)
    assert ll == pytest.approx(brute_partial_loglik(beta, y, delta, X),
                               abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    n = 30
    ds = Dataset(y=rng.uniform(0, 2, n), delta=rng.integers(0, 2, n),
                 X=rng.normal(0, 1, (n, 3)))
    if ds.n_u == 0:
        return
    beta = rng.normal(0, 0.5, 3)
    _, grad = partial_loglik(beta, ds)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        up, _ = partial_loglik(beta + e, ds)
        dn, _ = partial_loglik(beta - e, ds)
        assert grad[j] == pytest.approx((up - dn) / (2 * h), abs=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_fit_matches_grid_maximizer(seed):
    rng = np.random.default_rng(200 + seed)
    n = 8
    y = rng.uniform(0, 1, n)
    delta = np.ones(n, dtype=int)
    X = rng.normal(0, 1, (n, 1))
    ds = Dataset(y=y, delta=delta, X=X)
    res = fit(ds)
    assert res.converged
    grid = np.linspace(res.beta[0] - 0.5, res.beta[0] + 0.5, 2001)
    values = [brute_partial_loglik(np.array([b]), y, delta, X) for b in grid]
    best = grid[int(np.argmax(values))]
    assert res.beta[0] == pytest.approx(best, abs=1e-3)
    assert res.loglik == pytest.approx(max(values), abs=1e-6)


def test_symmetric_binary_covariate():
    # identical event patterns in the two groups: no effect detectable
    y = np.array([1, 2, 3, 4, 1, 2, 3, 4], dtype=float)
    delta = np.array([1, 0, 1, 1, 1, 0, 1, 1])
    x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)[:, None]
    ds = Dataset(y=y, delta=delta, X=x)
    res = fit(ds)
    assert res.converged
    assert abs(res.beta[0]) < 1e-8
    assert res.wald_p[0] == pytest.approx(1.0, abs=1e-6)


def test_loglik_concave_along_directions():
    ds = make_random_dataset(9, n=60, n_features=2)
    res = fit(ds)
    assert res.converged
    rng = np.random.default_rng(0)
    for _ in range(5):
        direction = rng.normal(0, 1, 2)
        for s in (0.1, 0.5, 1.0):
            ll, _ = partial_loglik(res.beta + s * direction, ds)
            assert ll <= res.loglik + 1e-10


def test_converged_gradient_small():
    ds = make_random_dataset(4, n=150, n_features=3)
    res = fit(ds)
    assert res.converged
    _, grad = partial_loglik(res.beta, ds)
    assert np.abs(grad).max() < 1e-8


def test_shift_and_scale_invariance():
    ds = make_random_dataset(6, n=120, n_features=2)
    res = fit(ds)
    shifted = Dataset(y=ds.y, delta=ds.delta, X=ds.X + 5.0,
                      feature_names=ds.feature_names)
    res_shift = fit(shifted)
    np.testing.assert_allclose(res_shift.beta, res.beta, atol=1e-8)
    np.testing.assert_allclose(res_shift.wald_p, res.wald_p, atol=1e-8)
    scaled = Dataset(y=ds.y, delta=ds.delta,
                     X=ds.X * np.array([2.0, 0.5]),
                     feature_names=ds.feature_names)
    res_scale = fit(scaled)
    np.testing.assert_allclose(res_scale.beta,
                               res.beta / np.array([2.0, 0.5]), atol=1e-7)


def test_no_events_errors():
    ds = Dataset(y=[1.0, 2.0], delta=[0, 0], X=[[1.0], [2.0]])
    with pytest.raises(ValueError, match="no events"):
        fit(ds)
    with pytest.raises(ValueError, match="no events"):
        partial_loglik([0.0], ds)


def test_monotone_likelihood_reported_not_fabricated():
    # perfectly separating covariate: all early subjects (events) have x=1
    y = np.concatenate([np.linspace(1, 2, 10), np.linspace(3, 4, 10)])
    delta = np.concatenate([np.ones(10, int), np.zeros(10, int)])
    x = np.concatenate([np.ones(10), np.zeros(10)])[:, None]
    ds = Dataset(y=y, delta=delta, X=x)
    res = fit(ds)
    assert not res.converged
    assert res.message != ""


def test_few_events_many_censored_degenerate_regime():
    # shape of a tiny sub-collection: 147 censored, 4 events
    rng = np.random.default_rng(8)
    n = 151
    delta = np.zeros(n, dtype=int)
    delta[:4] = 1
    y = np.concatenate([rng.uniform(0.5, 1.0, 4), rng.uniform(0.2, 3.0, n - 4)])
    X = rng.normal(0, 1, (n, 3))
    ds = Dataset(y=y, delta=delta, X=X)
    res = fit(ds)  # must not raise
    assert res.iterations >= 1
    pathological = (not res.converged) or res.singular or np.any(
        np.isnan(res.wald_p)) or np.all((res.wald_p > 0.99) | (res.wald_p < 1e-6))
    assert pathological or res.converged


def test_singular_information_flagged():
    # duplicated covariate column: information is rank-deficient
    rng = np.random.default_rng(15)
    n = 60
    x = rng.normal(0, 1, n)
    ds = Dataset(y=rng.uniform(0, 1, n), delta=np.ones(n, dtype=int),
                 X=np.column_stack([x, x]))
    res = fit(ds)
    assert res.singular or not res.converged
    assert np.isnan(res.wald_p).any() or not res.converged


def test_converges_at_readme_size():
    # n = 10^4, 20% censored: an absolute tolerance would sit below the
    # rounding noise of a loglik this large (about -6.4e4)
    ds = generate(SimConfig(n=10_000, censor_target=0.2, seed=0))
    res = fit(ds)
    assert res.converged
    assert res.message == ""
    _, grad = partial_loglik(res.beta, ds)
    assert np.abs(grad).max() <= 1e-6


def test_converges_at_1e5():
    # about half of the records censored
    ds = generate(SimConfig(n=100_000, censor_rate=2.0, seed=1))
    res = fit(ds)
    assert res.converged
    assert res.message == ""
    assert not res.singular
