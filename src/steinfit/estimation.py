"""Parameter estimators backing the bootstrap tests.

Each estimator has a scalar fit, which takes one sample and raises FitError
on a sample it cannot fit, and a row fit, which takes any matrix and returns
one array per parameter and the rows it fitted; a row is refused exactly
where the scalar fit raises FitError (or, for Burr, does not converge).

* burr_mle_rows   -- profile maximum likelihood for the Burr XII (k, c) pair
                     (scale fixed at 1) of every row at once; the k direction
                     has a closed-form stationary point, leaving a safeguarded
                     Newton iteration in log c on one bracket, C_BRACKET.
* burr_mle        -- the same estimator on one sample, as its one-row case.
* gamma_fit_rows  -- method of moments; exactly scale equivariant (lam) and
                     scale invariant (k).
* normal_fit_rows -- sample mean and variance with divisor n.
* gamma_fit, normal_fit -- their one-row cases.
* moments_rows    -- the mean and variance of both moment fits, row-wise.

A scalar fit's ``loglik`` is the catalog log-likelihood of the fitted law,
distributions.log_likelihood, for every family.
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


# the search bracket for c
C_BRACKET = (1e-7, 1e7)
# a fit ending this close to the bracket's end (in log c) is on the edge
ROWS_EDGE_TOL = 1e-6
ROWS_UTOL = 1e-10  # a row is frozen once its step in log c falls below this
ROWS_MAXITER = 500  # Newton steps per row


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
    msg = "" if converged else (f"no profile maximum found inside c in [{C_BRACKET[0]:g}, "
                                f"{C_BRACKET[1]:g}] ({steps} Newton steps, c = {c_hat:.6g})")
    ll = log_likelihood(make_distribution("burr_xii", k=k_hat, c=c_hat), x)
    return FitResult(params={"k": float(k_hat), "c": float(c_hat)}, converged=bool(converged),
                     loglik=ll, iterations=int(steps), message=msg)


def burr_mle_rows(X, c0: float):
    """Burr XII profile maximum likelihood of every row of X at once.

    A Newton iteration on the profile score in u = log c starts every row at
    log(c0), keeps a sign bracket inside C_BRACKET and bisects it whenever a
    Newton step would leave it; a point where every x^c underflows counts as
    past the maximum.  A row is frozen once its step falls below ROWS_UTOL,
    so later iterations cannot move it off the root.  Returns arrays (k, c,
    converged), k = n / sum log(1 + x^c); a row is not converged when it
    ends within ROWS_EDGE_TOL of the bracket's end, is still moving after
    ROWS_MAXITER steps, or has k not finite.  A row with a value not
    positive or not finite, or a constant row (burr_mle raises FitError on
    these), is not converged and has k = c = NaN.
    """
    X = np.asarray(X, dtype=float)
    ok = np.all(np.isfinite(X) & (X > 0), axis=1)
    ok[ok] = np.ptp(X[ok], axis=1) > 0
    k, c = np.full(X.shape[0], math.nan), np.full(X.shape[0], math.nan)
    k[ok], c[ok], ok[ok], _ = _burr_newton(X[ok], c0)
    return k, c, ok


def _burr_newton(X, c0: float):
    """burr_mle_rows on rows it accepts, with each row's count of Newton
    steps as a fourth array."""
    L = np.log(X)
    rows, n = L.shape
    # z = cL has the sign of L for every c > 0, so each term's form is fixed:
    # with e = e^-|z| and q = 1/(1 + e), x^c/(1 + x^c) is q where L > 0 and
    # eq elsewhere, and 1/(1 + x^c) the other one
    Lp = np.maximum(L, 0.0)
    Ln = L - Lp
    LL = L * L
    minus_abs_L = -np.abs(L)
    sum_Lp = Lp.sum(axis=1)
    lo_c, hi_c = (math.log(b) for b in C_BRACKET)
    lo, hi = np.full(rows, lo_c), np.full(rows, hi_c)  # the sign brackets
    u = np.clip(np.full(rows, math.log(c0)), lo_c, hi_c)
    active = np.ones(rows, dtype=bool)
    steps = np.zeros(rows, dtype=int)
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
            stop = np.abs(new - u) < ROWS_UTOL
            u = np.where(active, new, u)
            steps += active
            active &= ~stop
            if not active.any():
                break
    c = np.exp(u)
    with np.errstate(divide="ignore", over="ignore"):  # k is not finite where t underflows
        k = n / log1p_exp(c[:, None] * L).sum(axis=1)
    on_edge = np.minimum(u - lo_c, hi_c - u) <= ROWS_EDGE_TOL
    return k, c, ~active & ~on_edge & np.isfinite(k), steps


# --------------------------------------------------------------------------
# Gamma and normal moment estimators
# --------------------------------------------------------------------------

def gamma_fit(s) -> FitResult:
    """Method of moments, the one-row case of gamma_fit_rows."""
    x = as_values(s)
    if x.size < 2:
        raise FitError("gamma_fit needs at least 2 observations")
    if np.any(x <= 0):
        raise FitError("gamma_fit needs positive observations")
    (k,), (lam,), (ok,) = gamma_fit_rows(x[None])
    if not ok:
        k, lam = _gamma_params(*_moments(x))  # _moments raises if the moments are at fault
        raise FitError(f"the gamma moment fit overflows (k {k:.6g}, lam {lam:.6g})")
    k, lam = float(k), float(lam)
    ll = log_likelihood(make_distribution("gamma", k=k, lam=lam), x)
    return FitResult(params={"k": k, "lam": lam}, converged=True, loglik=ll, iterations=0)


def gamma_fit_rows(X):
    """Method of moments on every row of X: arrays (k, lam, ok) with k =
    mean^2/var and lam = var/mean (divisor n).  lam is exactly scale
    equivariant and k exactly scale invariant, which is what the gamma
    characterization test requires of its estimators.  A row with a value
    not positive, or whose k or lam is not finite (as one is where the
    moments overflow or the variance is 0), is refused: not ok, k = lam =
    NaN."""
    X = np.asarray(X, dtype=float)
    k, lam = _gamma_params(*moments_rows(X))
    ok = np.all(X > 0, axis=1) & np.isfinite(k) & np.isfinite(lam)
    return np.where(ok, k, math.nan), np.where(ok, lam, math.nan), ok


def _gamma_params(mean, var):
    """k = mean^2/var and lam = var/mean, not finite (with no warning) where they overflow."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return mean * mean / var, var / mean


def normal_fit(s) -> FitResult:
    """Sample mean and variance S^2 with divisor n (population form), the
    one-row case of normal_fit_rows."""
    x = as_values(s)
    if x.size < 2:
        raise FitError("normal_fit needs at least 2 observations")
    mean, var = _moments(x)
    ll = log_likelihood(make_distribution("normal", mu=mean, sigma2=var), x)
    return FitResult(params={"mu": mean, "sigma2": var}, converged=True, loglik=ll)


def normal_fit_rows(X):
    """Row means and variances (divisor n): arrays (mu, sigma2, ok).  A row
    whose moments overflow or whose variance is 0 is refused: not ok, mu =
    sigma2 = NaN."""
    mean, var = moments_rows(X)
    ok = np.isfinite(mean) & np.isfinite(var) & (var != 0.0)
    return np.where(ok, mean, math.nan), np.where(ok, var, math.nan), ok


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
