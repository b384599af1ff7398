"""Proportional-hazards fitting by damped Newton on the partial likelihood.

Ties are handled with the Breslow approximation (every event at a tied time
sees the full risk set and the shared denominator).  One evaluation costs
O(n p^2): reverse cumulative sums over the time-sorted sample, read at the
start of each event time's risk set, and one weighted Gram product for the
Hessian.  Fitting stops when the Newton step's predicted likelihood gain
falls to a fixed fraction of |loglik|, so the rule does not tighten with n;
runaway coefficients (monotone likelihood, typical when events are scarce)
are reported as non-convergence rather than as fabricated estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset


@dataclass
class CoxFit:
    features: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    wald_p: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    singular: bool = False
    message: str = ""

    COLUMNS = ("feature", "beta", "se", "p")

    def summary_rows(self) -> list[dict]:
        return [dict(zip(self.COLUMNS, (
                    name, float(self.beta[j]),
                    None if not np.isfinite(self.se[j]) else float(self.se[j]),
                    None if not np.isfinite(self.wald_p[j])
                    else float(self.wald_p[j]))))
                for j, name in enumerate(self.features)]

    def p_for(self, feature: str) -> float:
        return float(self.wald_p[self.features.index(feature)])


def _design(dataset: Dataset, features: Sequence[str] | None):
    names = tuple(features) if features is not None else dataset.feature_names
    cols = [dataset.feature_names.index(f) for f in names]
    return names, dataset.X[:, cols]


def _prepare(dataset: Dataset, X: np.ndarray):
    """Sort ascending in time and reduce the events to their tie groups.

    Returns the sorted design, then one entry per distinct event time: the
    first sorted index of its tie group (the risk set is everything from
    there on) and its event count; and the column sums of X over all events.
    """
    order = np.argsort(dataset.y, kind="stable")
    y = dataset.y[order]
    ev = dataset.delta[order].astype(bool)
    Xs = X[order]
    n = y.size
    runs = np.ones(n, dtype=bool)
    runs[1:] = y[1:] != y[:-1]
    first = np.maximum.accumulate(np.where(runs, np.arange(n), 0))[ev]
    heads = np.flatnonzero(np.r_[True, first[1:] != first[:-1]])
    gstart = first[heads]
    d_g = np.diff(np.r_[heads, first.size]).astype(float)
    return Xs, gstart, d_g, Xs[ev].sum(axis=0)


def _loglik_parts(beta: np.ndarray, Xs: np.ndarray, gstart: np.ndarray,
                  d_g: np.ndarray, xsum: np.ndarray, want_hessian: bool):
    """Breslow partial log-likelihood, gradient and (optional) Hessian.

    S0 and S1 are reverse cumulative sums gathered at the risk-set starts.
    The Hessian's S2 terms fold into one weighted Gram product: subject i
    sits in every risk set that starts at or before it, so it carries
    c_i = sum of d_g / S0_g over those groups.
    """
    xb = Xs @ beta
    shift = xb.max()  # common shift cancels in every ratio and log-difference
    w = np.exp(xb - shift)
    s0 = np.cumsum(w[::-1])[::-1][gstart]
    s1 = np.cumsum((Xs * w[:, None])[::-1], axis=0)[::-1][gstart]
    xbar = s1 / s0[:, None]
    ll = float(xsum @ beta - d_g.sum() * shift - d_g @ np.log(s0))
    grad = xsum - d_g @ xbar
    hess = None
    if want_hessian:
        c = np.zeros_like(w)
        c[gstart] = d_g / s0
        wc = w * np.cumsum(c)
        hess = (xbar.T * d_g) @ xbar - (Xs.T * wc) @ Xs
    return ll, grad, hess


def partial_loglik(beta: Sequence[float], dataset: Dataset,
                   features: Sequence[str] | None = None
                   ) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and its analytic gradient at ``beta``."""
    names, X = _design(dataset, features)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (len(names),):
        raise ValueError("beta length must match the feature list")
    if dataset.n_u == 0:
        raise ValueError("no events")
    ll, grad, _ = _loglik_parts(beta, *_prepare(dataset, X),
                                want_hessian=False)
    return ll, grad


def fit(dataset: Dataset, features: Sequence[str] | None = None,
        max_iter: int = 50, tol: float = 1e-9,
        beta_bound: float = 50.0) -> CoxFit:
    """Maximize the Breslow partial likelihood by damped Newton steps.

    Each iteration solves for the Newton step.  When its decrement
    g'(-H)^-1 g / 2, the likelihood gain the step predicts, is at most
    ``tol * |loglik|``, the step is taken and the fit is converged; a
    relative rule, so it holds at every n (R's ``survival`` stops on a
    relative loglik change of 1e-9 too).  Otherwise the step is halved until
    the likelihood does not drop by more than that same slack.
    ``iterations`` counts the Newton steps taken.

    Standard errors come from the inverse observed information; when the
    information matrix is singular the affected coefficients are reported
    without p-values and the fit is flagged.  Coefficients running past
    ``beta_bound`` are read as monotone likelihood and reported as
    non-convergence.
    """
    names, X = _design(dataset, features)
    if dataset.n_u == 0:
        raise ValueError("no events")
    prep = _prepare(dataset, X)
    p = len(names)
    beta = np.zeros(p)
    ll, grad, hess = _loglik_parts(beta, *prep, want_hessian=True)
    converged = False
    singular = False
    message = ""
    it = 0
    for it in range(1, max_iter + 1):
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(-hess, grad, rcond=None)
            singular = True
        slack = tol * abs(ll)
        if grad @ step / 2.0 <= slack:
            beta = beta + step
            ll, grad, hess = _loglik_parts(beta, *prep, want_hessian=True)
            converged = True
            break
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            ll_new, _, _ = _loglik_parts(cand, *prep, want_hessian=False)
            if np.isfinite(ll_new) and ll_new >= ll - slack:
                break
            scale /= 2.0
        else:
            message = "step-halving failed to improve the likelihood"
            break
        beta = cand
        ll, grad, hess = _loglik_parts(beta, *prep, want_hessian=True)
        if np.abs(beta).max() > beta_bound:
            message = ("coefficient escaped past "
                       f"{beta_bound}; monotone likelihood suspected")
            break
    else:
        message = f"no convergence in {max_iter} iterations"
    if converged and np.abs(beta).max() > 2.0:
        # the decrement can fall below the slack on a separable fit long
        # before the coefficient bound trips; probe whether the likelihood
        # still fails to drop when the coefficients double
        ll_far, _, _ = _loglik_parts(2.0 * beta, *prep, want_hessian=False)
        if ll_far >= ll - tol * abs(ll):
            converged = False
            message = ("likelihood is nondecreasing toward infinite "
                       "coefficients; monotone likelihood suspected")

    se = np.full(p, np.nan)
    wald_p = np.full(p, np.nan)
    try:
        cov = np.linalg.inv(-hess)
        diag = np.diag(cov)
        ok = diag > 0
        se[ok] = np.sqrt(diag[ok])
        if not ok.all():
            singular = True
    except np.linalg.LinAlgError:
        singular = True
    for j in range(p):
        if np.isfinite(se[j]) and se[j] > 0:
            wald_p[j] = math.erfc(abs(beta[j] / se[j]) / math.sqrt(2.0))
    return CoxFit(
        features=names,
        beta=beta,
        se=se,
        wald_p=wald_p,
        loglik=ll,
        converged=converged,
        iterations=it,
        singular=singular,
        message=message,
    )
