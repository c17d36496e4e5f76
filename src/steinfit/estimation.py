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

from .distributions import as_values, log_likelihood, make_distribution


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
            lc_hat, calls, success = _bounded_brent(neg_profile, lo, hi, xatol=1e-10, maxiter=500)
        nfev += calls
        edge = min(lc_hat - lo, hi - lc_hat) < ROWS_EDGE_TOL
        if not edge:
            break
        lo -= math.log(10.0)
        hi += math.log(10.0)
    c_hat = math.exp(lc_hat)
    with np.errstate(divide="ignore", over="ignore"):
        k_hat = burr_profile_k(x, c_hat)
    if not math.isfinite(k_hat):
        raise FitError(f"Burr k = n / sum log(1 + x^c) is not finite at c = {c_hat:.6g}")
    ll = burr_loglik(x, k_hat, c_hat)
    converged = success and not edge
    msg = "" if converged else "profile maximizer on the c-bracket edge after expansion"
    return FitResult(params={"k": k_hat, "c": c_hat}, converged=converged,
                     loglik=ll, iterations=nfev, message=msg)


def _bounded_brent(func, x1: float, x2: float, xatol: float, maxiter: int):
    """Minimize func on [x1, x2] by Brent's bounded method: golden-section
    steps with parabolic interpolation.  Returns (x, nfev, success); success
    is False when maxiter evaluations run out or a value is nan.
    """
    # The loop of scipy's _minimize_scalar_bounded (scipy/optimize/_optimize.py,
    # BSD-3-Clause), step for step and with its numpy scalar arithmetic, so
    # every iterate has the bits of minimize_scalar(method="bounded").
    flag = 0
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    return xf, num, flag == 0


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
    normal_fit; FitError when either overflows or the variance is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(x))
        var = float(np.mean((x - mean) ** 2))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise FitError(f"the sample mean or variance overflows (mean {mean:.6g}, "
                       f"variance {var:.6g})")
    if var == 0.0:
        raise FitError("degenerate sample: zero variance")
    return mean, var


def moments_rows(X):
    """Row means and variances (divisor n) of a matrix, summed as _moments
    sums one sample, so each row's values are bit-identical; a row whose
    moments overflow gets a non-finite value, without a warning."""
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(X, axis=1)
        return mean, np.mean((X - mean[:, None]) ** 2, axis=1)
