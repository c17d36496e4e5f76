"""Parameter estimators backing the bootstrap tests.

* burr_mle_rows -- profile maximum likelihood for the Burr XII (k, c) pair
                   (scale fixed at 1) of every row of a matrix at once; the k
                   direction has a closed-form stationary point, leaving a
                   safeguarded Newton iteration in log c that widens its own
                   bracket.
* burr_mle      -- the same estimator on one sample, as its one-row case.
* gamma_fit     -- method of moments; exactly scale equivariant (lam) and
                   scale invariant (k).
* normal_fit    -- sample mean and variance with divisor n.
* moments_rows  -- the mean and variance of gamma_fit and normal_fit, row-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import as_values, log1p_exp, log_likelihood, make_distribution


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
        return {**vars(self), "params": dict(self.params)}


# --------------------------------------------------------------------------
# Burr XII profile maximum likelihood
# --------------------------------------------------------------------------

def burr_profile_k(x, c: float) -> float:
    """Stationary point of the log-likelihood in k for fixed c:
    k(c) = n / sum log(1 + x_i^c)."""
    logx = np.log(as_values(x))
    return float(len(logx) / log1p_exp(c * logx).sum())


def burr_loglik(x, k: float, c: float) -> float:
    """l(k, c) = n log c + n log k + (c-1) sum log x - (k+1) sum log(1+x^c)."""
    logx = np.log(as_values(x))
    n = logx.size
    t = log1p_exp(c * logx).sum()
    return float(n * math.log(c) + n * math.log(k) + (c - 1) * logx.sum() - (k + 1) * t)


# the search bracket for c before any expansion
C_BRACKET = (1e-3, 1e3)
# a fit ending this close to its bracket (in log c) is on the edge
ROWS_EDGE_TOL = 1e-6
# a bracket is widened tenfold per side at most this often (to 1e-7..1e7)
MAX_EXPANSIONS = 4
ROWS_UTOL = 1e-10  # a row is frozen once its step in log c falls below this
ROWS_MAXITER = 500  # Newton steps per row, over all its brackets


def burr_mle(s) -> FitResult:
    """Burr XII maximum likelihood via the profile in c: the one-row case of
    burr_mle_rows, started at c = 1.  ``iterations`` counts its Newton steps.
    Raises FitError when k = n / sum log(1 + x^c) is not finite at the end.
    """
    x = as_values(s)
    if x.size < 2:
        raise FitError("burr_mle needs at least 2 observations")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise FitError("burr_mle needs positive, finite observations")
    if np.all(x == x[0]):
        raise FitError("degenerate sample: all observations equal")
    (k_hat,), (c_hat,), (converged,), (steps,) = _burr_newton(x[None], 1.0)
    if not math.isfinite(k_hat):
        raise FitError(f"Burr k = n / sum log(1 + x^c) is not finite at c = {c_hat:.6g}")
    widest = (C_BRACKET[0] / 10 ** MAX_EXPANSIONS, C_BRACKET[1] * 10 ** MAX_EXPANSIONS)
    msg = "" if converged else (f"no profile maximum found inside c in [{widest[0]:g}, "
                                f"{widest[1]:g}] ({steps} Newton steps, c = {c_hat:.6g})")
    return FitResult(params={"k": float(k_hat), "c": float(c_hat)}, converged=bool(converged),
                     loglik=burr_loglik(x, k_hat, c_hat), iterations=int(steps), message=msg)


def burr_mle_rows(X, c0: float):
    """Burr XII profile maximum likelihood of every row of X at once.

    The rows must be positive, finite and not constant.  A Newton iteration
    on the profile score in u = log c starts every row at log(c0), keeps a
    sign bracket inside the row's c-bracket (C_BRACKET at first) and bisects
    it whenever a Newton step would leave it; a point where every x^c
    underflows counts as past the maximum.  A row is frozen once its step
    falls below ROWS_UTOL, so later iterations cannot move it off the root.
    A row frozen within ROWS_EDGE_TOL of its c-bracket's end has its bracket
    widened tenfold per side and goes on, at most MAX_EXPANSIONS times.
    Returns arrays (k, c, converged), k = n / sum log(1 + x^c); a row is not
    converged when it ends on the edge of its widest bracket, is still
    moving after ROWS_MAXITER steps, or has k not finite.
    """
    return _burr_newton(X, c0)[:3]


def _burr_newton(X, c0: float):
    """burr_mle_rows, with each row's count of Newton steps as a fourth array."""
    L = np.log(np.asarray(X, dtype=float))
    rows, n = L.shape
    # z = cL has the sign of L for every c > 0, so each term's form is fixed:
    # with e = e^-|z| and q = 1/(1 + e), x^c/(1 + x^c) is q where L > 0 and
    # eq elsewhere, and 1/(1 + x^c) the other one
    Lp = np.maximum(L, 0.0)
    Ln = L - Lp
    LL = L * L
    minus_abs_L = -np.abs(L)
    sum_Lp = Lp.sum(axis=1)
    lo_c, hi_c = (np.full(rows, math.log(b)) for b in C_BRACKET)  # the c-brackets
    lo, hi = lo_c.copy(), hi_c.copy()  # the sign brackets
    u = np.clip(np.full(rows, math.log(c0)), lo_c, hi_c)
    active = np.ones(rows, dtype=bool)
    converged = np.zeros(rows, dtype=bool)
    steps = np.zeros(rows, dtype=int)
    widened = np.zeros(rows, dtype=int)
    # g and dg are nan where t = 0: such a point fails g > 0, so it becomes the
    # upper end of the sign bracket, past the maximum, and is bisected away
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(ROWS_MAXITER):
            # every row is computed; a frozen row's u stays put, and its sign
            # bracket is not used again
            c = np.exp(u)
            e = np.exp(c[:, None] * minus_abs_L)
            q = 1.0 / (1.0 + e)
            eq = e * q
            t = c * sum_Lp + np.log1p(e).sum(axis=1)  # sum log(1 + x^c), log1p_exp's form
            ct1 = c * (Lp * q + Ln * eq).sum(axis=1)  # c sum L x^c/(1 + x^c)
            c2t2 = c * c * (LL * (q * eq)).sum(axis=1)  # c^2 sum L^2 x^c/(1 + x^c)^2
            rest = c * (Lp * eq + Ln * q).sum(axis=1)  # c (S - t'), free of cancellation
            # profile score dl/du and its derivative; l(u) = n u - n log t + c S - t + const
            g = n + rest - n * ct1 / t
            dg = rest - c2t2 - n * (ct1 + c2t2) / t + n * (ct1 / t) ** 2
            newton = u - g / dg
            up = g > 0
            lo = np.where(up, u, lo)
            hi = np.where(up, hi, u)
            # a step below ROWS_UTOL is taken even onto the bracket's end (g = 0 there)
            take = ((newton > lo) & (newton < hi)) | (np.abs(newton - u) < ROWS_UTOL)
            new = np.where(take, newton, 0.5 * (lo + hi))
            stop = active & (np.abs(new - u) < ROWS_UTOL)
            u = np.where(active, new, u)
            steps += active
            if not stop.any():
                continue
            edge = stop & (np.minimum(u - lo_c, hi_c - u) <= ROWS_EDGE_TOL)
            converged |= stop & ~edge
            active &= ~stop
            if edge.any():  # widen such a row's c-bracket and go on
                widen = edge & (widened < MAX_EXPANSIONS)
                widened += widen
                lo_c = lo_c - math.log(10.0) * widen
                hi_c = hi_c + math.log(10.0) * widen
                lo, hi = np.where(widen, lo_c, lo), np.where(widen, hi_c, hi)
                active |= widen
            if not active.any():
                break
    c = np.exp(u)
    with np.errstate(divide="ignore", over="ignore"):  # k is not finite where t underflows
        k = n / log1p_exp(c[:, None] * L).sum(axis=1)
    return k, c, converged & np.isfinite(k), steps


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
    mean, var = _moments(x)
    k = mean * mean / var
    lam = var / mean
    if not (math.isfinite(k) and math.isfinite(lam)):
        raise FitError(f"the gamma moment fit overflows (k {k:.6g}, lam {lam:.6g})")
    ll = log_likelihood(make_distribution("gamma", k=k, lam=lam), x)
    return FitResult(params={"k": k, "lam": lam}, converged=True, loglik=ll, iterations=0)


def normal_fit(s) -> FitResult:
    """Sample mean and variance S^2 with divisor n (population form)."""
    x = as_values(s)
    if x.size < 2:
        raise FitError("normal_fit needs at least 2 observations")
    mean, var = _moments(x)
    loglik = float(-0.5 * x.size * (math.log(2 * math.pi * var) + 1.0))
    return FitResult(params={"mu": mean, "sigma2": var}, converged=True, loglik=loglik)


def _moments(x):
    """Mean and variance (divisor n) of one sample, for gamma_fit and
    normal_fit, as the one-row case of moments_rows; FitError when either
    overflows or the variance is 0."""
    mean, var = (float(v[0]) for v in moments_rows(x[None]))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise FitError(f"the sample mean or variance overflows (mean {mean:.6g}, "
                       f"variance {var:.6g})")
    if var == 0.0:
        raise FitError("degenerate sample: zero variance")
    return mean, var


def moments_rows(X):
    """Row means and variances (divisor n) of a matrix; a row whose moments
    overflow gets a non-finite value, without a warning."""
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(X, axis=1)
        return mean, np.mean((X - mean[:, None]) ** 2, axis=1)
