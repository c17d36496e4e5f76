"""Parameter estimators backing the bootstrap tests.

* burr_mle      -- profile maximum likelihood for the Burr XII (k, c) pair
                   (scale fixed at 1); the k direction has a closed-form
                   stationary point, leaving a robust 1-d bracketed search.
* burr_mle_rows -- the same maximum for every row of a matrix at once, by a
                   safeguarded Newton iteration; burr_mle decides the rows it
                   leaves unconverged and is its test oracle.
* gamma_fit     -- method of moments; exactly scale equivariant (lam) and
                   scale invariant (k).
* normal_fit    -- sample mean and variance with divisor n.
* moments_rows  -- the mean and variance of gamma_fit and normal_fit, row-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .distributions import as_values


class FitError(ValueError):
    """Sample unusable for the requested estimator."""


@dataclass
class FitResult:
    params: dict = field(default_factory=dict)
    converged: bool = False
    loglik: float = math.nan
    iterations: int = 0
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "converged": self.converged,
            "loglik": self.loglik,
            "iterations": self.iterations,
            "message": self.message,
        }


# --------------------------------------------------------------------------
# Burr XII profile maximum likelihood
# --------------------------------------------------------------------------

def burr_profile_k(x, c: float) -> float:
    """Stationary point of the log-likelihood in k for fixed c:
    k(c) = n / sum log(1 + x_i^c)."""
    logx = np.log(as_values(x))
    return float(len(logx) / np.logaddexp(0.0, c * logx).sum())


def burr_loglik(x, k: float, c: float) -> float:
    """l(k, c) = n log c + n log k + (c-1) sum log x - (k+1) sum log(1+x^c)."""
    logx = np.log(as_values(x))
    n = logx.size
    t = np.logaddexp(0.0, c * logx).sum()
    return float(n * math.log(c) + n * math.log(k) + (c - 1) * logx.sum() - (k + 1) * t)


# the search bracket for c of burr_mle (before any expansion) and of burr_mle_rows
C_BRACKET = (1e-3, 1e3)
# a fit ending this close to its bracket (in log c) is on the edge; bounded
# Brent stops about sqrt(eps)*|log c| from a bound, well inside this
ROWS_EDGE_TOL = 1e-6
# burr_mle widens C_BRACKET tenfold per side at most this often (to 1e-7..1e7)
MAX_EXPANSIONS = 4


def burr_mle(s) -> FitResult:
    """Burr XII maximum likelihood via the profile in c.

    Maximizes the profiled log-likelihood over log(c) with a bounded Brent
    search on log(C_BRACKET); the bracket expands tenfold per side, at most
    MAX_EXPANSIONS times, when the maximizer lands within ROWS_EDGE_TOL of an
    edge, and an edge hit after the final expansion is reported as
    non-convergence.
    Raises FitError when k = n / sum log(1 + x^c) is not finite there.
    """
    x = as_values(s)
    if x.size < 2:
        raise FitError("burr_mle needs at least 2 observations")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise FitError("burr_mle needs positive, finite observations")
    if np.all(x == x[0]):
        raise FitError("degenerate sample: all observations equal")

    logx = np.log(x)
    n = x.size
    sum_logx = logx.sum()

    def neg_profile(lc: float) -> float:
        c = math.exp(lc)
        t = np.logaddexp(0.0, c * logx).sum()
        if t == 0.0:  # every x^c underflows: k(c) = n/t is not finite
            return math.inf
        # l(k(c), c) with k(c) = n/t, using k(c)*t = n
        return -(n * lc + n * (math.log(n) - math.log(t)) + (c - 1) * sum_logx - n - t)

    lo, hi = (math.log(b) for b in C_BRACKET)
    nfev = 0
    for expansion in range(MAX_EXPANSIONS + 1):
        # a +inf profile makes Brent's parabolic step nan; golden section is taken
        with np.errstate(invalid="ignore"):
            res = minimize_scalar(neg_profile, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-10, "maxiter": 500})
        nfev += res.nfev
        edge = min(res.x - lo, hi - res.x) < ROWS_EDGE_TOL
        if not edge:
            break
        lo -= math.log(10.0)
        hi += math.log(10.0)
    c_hat = math.exp(res.x)
    with np.errstate(divide="ignore", over="ignore"):
        k_hat = burr_profile_k(x, c_hat)
    if not math.isfinite(k_hat):
        raise FitError(f"Burr k = n / sum log(1 + x^c) is not finite at c = {c_hat:.6g}")
    ll = burr_loglik(x, k_hat, c_hat)
    converged = bool(res.success) and not edge
    msg = "" if converged else "profile maximizer on the c-bracket edge after expansion"
    return FitResult(params={"k": k_hat, "c": c_hat}, converged=converged,
                     loglik=ll, iterations=nfev, message=msg)


ROWS_UTOL = 1e-10  # a row is frozen once its step in log c falls below this
ROWS_MAXITER = 100


def burr_mle_rows(X, c0: float):
    """Burr XII profile maximum likelihood of every row of X at once.

    The rows must be positive, finite and not constant.  A Newton iteration
    on the profile score in u = log c starts every row at log(c0), keeps a
    sign bracket inside log(C_BRACKET) and bisects it whenever a Newton step
    would leave it; a row is frozen once its step falls below ROWS_UTOL, so
    later iterations cannot move it off the root.  Returns arrays (k, c,
    converged), k = n / sum log(1 + x^c).  A row that has not converged
    after ROWS_MAXITER steps, or that ends within ROWS_EDGE_TOL of the
    bracket (burr_mle's edge rule), has converged False: burr_mle, with its
    bracket expansion, decides it.
    """
    L = np.log(np.asarray(X, dtype=float))
    rows, n = L.shape
    lo0, hi0 = (math.log(b) for b in C_BRACKET)
    lo, hi = np.full(rows, lo0), np.full(rows, hi0)
    u = np.full(rows, min(max(math.log(c0), lo0), hi0))
    done = np.zeros(rows, dtype=bool)
    converged = np.zeros(rows, dtype=bool)
    for _ in range(ROWS_MAXITER):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        ua, La = u[act], L[act]
        c = np.exp(ua)
        z = c[:, None] * La
        e = np.exp(-np.abs(z))
        q = 1.0 / (1.0 + e)
        s = np.where(z > 0, q, e * q)  # x^c / (1 + x^c)
        r = np.where(z > 0, e * q, q)  # 1 / (1 + x^c)
        t = (np.maximum(z, 0.0) + np.log1p(e)).sum(axis=1)  # sum log(1 + x^c)
        ct1 = c * (La * s).sum(axis=1)
        c2t2 = c * c * (La * La * s * r).sum(axis=1)
        rest = c * (La * r).sum(axis=1)  # c (S - t'), free of cancellation
        # profile score dl/du and its derivative; l(u) = n u - n log t + c S - t + const
        g = n + rest - n * ct1 / t
        dg = rest - c2t2 - n * (ct1 + c2t2) / t + n * (ct1 / t) ** 2
        bad = ~(np.isfinite(g) & np.isfinite(dg))
        up = g > 0
        lo[act] = np.where(up, ua, lo[act])
        hi[act] = np.where(up, hi[act], ua)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ua - g / dg
        # a step below ROWS_UTOL is taken even onto the bracket's end (g = 0 there)
        take = ((newton > lo[act]) & (newton < hi[act])) | (np.abs(newton - ua) < ROWS_UTOL)
        new = np.where(take, newton, 0.5 * (lo[act] + hi[act]))
        stop = bad | (np.abs(new - ua) < ROWS_UTOL)
        u[act] = np.where(bad, ua, new)
        done[act] = stop
        converged[act] = stop & ~bad
    converged &= np.minimum(u - lo0, hi0 - u) > ROWS_EDGE_TOL
    c = np.exp(u)
    k = n / np.logaddexp(0.0, c[:, None] * L).sum(axis=1)
    return k, c, converged


# --------------------------------------------------------------------------
# Gamma and normal moment estimators
# --------------------------------------------------------------------------

def gamma_fit(s) -> FitResult:
    """Method of moments: k = mean^2/var, lam = var/mean (divisor n).

    lam is exactly scale equivariant and k exactly scale invariant, which is
    what the gamma characterization test requires of its estimators.
    """
    x = as_values(s)
    if x.size < 2:
        raise FitError("gamma_fit needs at least 2 observations")
    if np.any(x <= 0):
        raise FitError("gamma_fit needs positive observations")
    mean = float(np.mean(x))
    var = float(np.mean((x - mean) ** 2))
    if var == 0.0:
        raise FitError("degenerate sample: zero variance")
    k = mean * mean / var
    lam = var / mean
    from .distributions import log_likelihood, make_distribution
    ll = log_likelihood(make_distribution("gamma", k=k, lam=lam), x)
    return FitResult(params={"k": k, "lam": lam}, converged=True, loglik=ll, iterations=0)


def normal_fit(s) -> FitResult:
    """Sample mean and variance S^2 with divisor n (population form)."""
    x = as_values(s)
    if x.size < 2:
        raise FitError("normal_fit needs at least 2 observations")
    mean = float(np.mean(x))
    var = float(np.mean((x - mean) ** 2))
    if var == 0.0:
        raise FitError("degenerate sample: zero variance")
    loglik = float(-0.5 * x.size * (math.log(2 * math.pi * var) + 1.0))
    return FitResult(params={"mu": mean, "sigma2": var}, converged=True, loglik=loglik)


def moments_rows(X):
    """Row means and variances (divisor n) of a matrix, summed as gamma_fit
    and normal_fit sum one sample, so each row's values are bit-identical."""
    X = np.asarray(X, dtype=float)
    mean = np.mean(X, axis=1)
    return mean, np.mean((X - mean[:, None]) ** 2, axis=1)
