"""Parameter estimators backing the bootstrap tests.

Each estimator is a row fit, the one statement of its rules: it returns one
array per parameter, each row's reason ("" once fitted; on a refused row, NaN
parameters and the first rule it breaks) and each row's iteration steps.  Its
scalar fit is the one-row case, ``_one_row``; ``message`` is the row's reason.

* burr_mle_rows   -- profile maximum likelihood for the Burr XII (k, c) pair
                     (scale fixed at 1) of every row at once; the k direction
                     has a closed-form stationary point, leaving a safeguarded
                     Newton iteration in log c on one bracket, C_BRACKET.
* gamma_fit_rows  -- method of moments; scale equivariant (lam) and scale
                     invariant (k).
* normal_fit_rows -- sample mean and variance with divisor n.
* burr_mle, gamma_fit, normal_fit -- their one-row cases.
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


def _one_row(rows, name: str, law: str, names: tuple, s) -> FitResult:
    """Sample ``s`` as row 0 of the row fit ``rows``: FitError with its reason
    where it is refused, else the fit of the catalog ``law`` whose parameters are ``names``."""
    x = as_values(s)
    if x.size < 2:
        raise FitError(f"{name} needs at least 2 observations")
    *values, (reason,), (steps,) = rows(x[None])
    if math.isnan(values[0][0]):
        raise FitError(reason)
    params = {p: float(v[0]) for p, v in zip(names, values)}
    return FitResult(params=params, converged=not reason, iterations=int(steps), message=reason,
                     loglik=log_likelihood(make_distribution(law, **params), x))


def _reasons(*rules) -> np.ndarray:
    """Each row's reason: the text of the first rule it breaks, or "".  A
    rule is (the rows that break it, a format template, the arrays whose row
    values the template quotes); a text is formatted for a broken row only."""
    broken = np.array([rule[0] for rule in rules])
    reason = np.full(broken.shape[1], "", dtype=object)
    for i in broken.any(axis=0).nonzero()[0]:
        template, *values = rules[broken[:, i].argmax()][1:]
        reason[i] = template.format(*(v[i] for v in values))
    return reason


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
    burr_mle_rows, started at c = 1.  ``iterations`` counts its Newton steps."""
    return _one_row(lambda X: burr_mle_rows(X, 1.0), "burr_mle", "burr_xii", ("k", "c"), s)


def burr_mle_rows(X, c0: float):
    """Burr XII profile maximum likelihood of every row of X at once.

    A Newton iteration on the profile score in u = log c starts every row at
    log(c0), keeps a sign bracket inside C_BRACKET and bisects it whenever a
    Newton step would leave it; a point where every x^c underflows counts as
    past the maximum.  A row is frozen once its step falls below ROWS_UTOL,
    so later iterations cannot move it off the root.  Returns arrays (k, c,
    reason, steps), k = n / sum log(1 + x^c).  A row is refused when a value
    is not positive or not finite, when it is constant, or when k is not
    finite; it is not converged when it ends within ROWS_EDGE_TOL of the
    bracket's end or is still moving after ROWS_MAXITER steps.
    """
    X = np.asarray(X, dtype=float)
    valid = np.all(np.isfinite(X) & (X > 0), axis=1)
    fit = valid & (X.max(axis=1) > X.min(axis=1))
    L = np.log(np.where(fit[:, None], X, 1.0))  # a refused row is carried, inactive
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
    active = fit.copy()
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
        k = np.where(fit, n / log1p_exp(c[:, None] * L).sum(axis=1), math.nan)
    reason = _reasons(
        (~valid, "burr_mle needs positive, finite observations"),
        (~fit, "degenerate sample: all observations equal"),
        (~np.isfinite(k), "Burr k = n / sum log(1 + x^c) is not finite at c = {:.6g}", c),
        (active | (np.minimum(u - lo_c, hi_c - u) <= ROWS_EDGE_TOL), "no profile maximum found "
         f"inside c in [{C_BRACKET[0]:g}, {C_BRACKET[1]:g}] ({{}} Newton steps, c = {{:.6g}})",
         steps, c))
    return *(np.where(np.isfinite(k), v, math.nan) for v in (k, c)), reason, steps


# --------------------------------------------------------------------------
# Gamma and normal moment estimators
# --------------------------------------------------------------------------

def gamma_fit(s) -> FitResult:
    """Method of moments, the one-row case of gamma_fit_rows."""
    return _one_row(gamma_fit_rows, "gamma_fit", "gamma", ("k", "lam"), s)


def gamma_fit_rows(X):
    """Method of moments on every row of X: arrays (k, lam, reason, steps)
    with k = mean^2/var and lam = var/mean (divisor n), and no steps.  lam
    is scale equivariant and k scale invariant, which is what the gamma
    characterization test requires of its estimators; exactly so for a
    power-of-2 scaling while mean^2 and the variance stay normal doubles
    (data of magnitude about 1e-150 to 1e150).  A row is refused where a
    value is not positive, by normal_fit_rows' rules, or where k or lam is
    not finite."""
    X = np.asarray(X, dtype=float)
    mean, var = moments_rows(X)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k, lam = mean * mean / var, var / mean
    return _refused_nan(k, lam, reason=_reasons(
        ((X <= 0).any(axis=1), "gamma_fit needs positive observations"),
        *_moment_rules("gamma_fit", X, mean, var),
        (~(np.isfinite(k) & np.isfinite(lam)), "the gamma moment fit overflows "
                                                "(k {:.6g}, lam {:.6g})", k, lam)))


def normal_fit(s) -> FitResult:
    """Sample mean and variance S^2 with divisor n (population form), the
    one-row case of normal_fit_rows."""
    return _one_row(normal_fit_rows, "normal_fit", "normal", ("mu", "sigma2"), s)


def normal_fit_rows(X):
    """Row means and variances (divisor n): arrays (mu, sigma2, reason,
    steps), with no steps.  A row is refused where a value is not finite,
    where its moments overflow, or where its variance is 0: a constant row,
    or one whose variance underflows."""
    X = np.asarray(X, dtype=float)
    mean, var = moments_rows(X)
    return _refused_nan(mean, var, reason=_reasons(*_moment_rules("normal_fit", X, mean, var)))


def _moment_rules(name: str, X, mean, var) -> list:
    """normal_fit_rows' rules, which gamma_fit_rows keeps too."""
    zero = var == 0.0
    return [(~np.isfinite(X).all(axis=1), f"{name} needs finite observations"),
            (~(np.isfinite(mean) & np.isfinite(var)),
             "the sample mean or variance overflows (mean {:.6g}, variance {:.6g})", mean, var),
            (zero & (X.max(axis=1) == X.min(axis=1)), "degenerate sample: zero variance"),
            (zero, "the sample variance underflows (mean {:.6g}, variance 0)", mean)]


def _refused_nan(*params, reason):
    """A moment fit's return: its parameters, NaN where a row has a reason."""
    fitted = reason == ""
    return *(np.where(fitted, p, math.nan) for p in params), reason, np.zeros(reason.size, int)


def moments_rows(X):
    """Row means and variances (divisor n) of a matrix; a row whose moments
    overflow gets a non-finite value, without a warning."""
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(X, axis=1)
        return mean, np.mean((X - mean[:, None]) ** 2, axis=1)
