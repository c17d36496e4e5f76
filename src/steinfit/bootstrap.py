"""Parametric bootstrap test engine.

The procedure, for a hypothesized family with unknown parameters: fit the
parameters, compute the test statistic, then draw B samples of the same
size from the fitted law, re-fit each one, and recompute the statistic.
The critical value is the ceil((1-alpha)B)-th order statistic of the
bootstrap values (the 90th of 100 at the default alpha = 0.1, B = 100) and
the hypothesis is rejected when the observed statistic strictly exceeds it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gof
from .characterization import empirical_T_min, empirical_T_zero_bias
from .distributions import (
    DistributionSpec,
    RngStream,
    as_values,
    cdf,
    make_distribution,
    sample,
    score,
)
from .estimation import FitError, FitResult, burr_mle, gamma_fit, normal_fit
from .gof import StatisticId

FAMILIES = ("burr", "gamma", "normal")

MAX_FAILURE_FRACTION = 0.05


class BootstrapError(RuntimeError):
    """Too many replicate fits failed for the bootstrap to be trustworthy."""


@dataclass
class TestOutcome:
    family: str
    statistic: str
    statistic_value: float
    critical_value: float
    p_value: float
    reject: bool
    fit: FitResult = field(default_factory=FitResult)
    B: int = 0
    effective_B: int = 0
    alpha: float = math.nan
    n: int = 0
    failed_replicates: int = 0
    rng_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "statistic": self.statistic,
            "statistic_value": self.statistic_value,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": self.reject,
            "fit": self.fit.to_dict(),
            "B": self.B,
            "effective_B": self.effective_B,
            "alpha": self.alpha,
            "n": self.n,
            "failed_replicates": self.failed_replicates,
            "rng_fingerprint": self.rng_fingerprint,
        }


# --------------------------------------------------------------------------
# Family adapters
# --------------------------------------------------------------------------

def fit_family(family: str, x) -> FitResult:
    if family == "burr":
        return burr_mle(x)
    if family == "gamma":
        return gamma_fit(x)
    if family == "normal":
        return normal_fit(x)
    raise ValueError(f"unknown hypothesis family '{family}'; known: {FAMILIES}")


def fit_family_retry(family: str, x) -> FitResult:
    """Fit, retrying once from a widened search bracket on non-convergence."""
    fit = fit_family(family, x)
    if fit.converged or family != "burr":
        return fit
    return burr_mle(x, c_bracket=(1e-5, 1e5))


def fitted_distribution(family: str, fit: FitResult) -> DistributionSpec:
    if family == "burr":
        return make_distribution("burr_xii", k=fit.params["k"], c=fit.params["c"], sigma=1.0)
    if family == "gamma":
        return make_distribution("gamma", k=fit.params["k"], lam=fit.params["lam"])
    if family == "normal":
        return make_distribution("normal", mu=fit.params["mu"], sigma2=fit.params["sigma2"])
    raise ValueError(f"unknown hypothesis family '{family}'")


def evaluate_statistic(family: str, stat: StatisticId, x, fit: FitResult) -> float:
    """Compute one statistic on a sample given the family fit."""
    x = as_values(x)
    if stat.tag == "burr_B":
        if family != "burr":
            raise ValueError("the burr_B statistic applies to the burr family only")
        return gof.burr_B_closed(x, fit.params["k"], fit.params["c"], stat.a)

    if stat.tag == "generic_L2":
        if family == "burr":
            dist = fitted_distribution(family, fit)
            Tn = lambda t: empirical_T_min(x, lambda v: score(dist, v), t, 0.0)
            return gof.generic_L2(Tn, x, stat.a, left=0.0)
        if family == "gamma":
            y = x / fit.params["lam"]
            unit = make_distribution("gamma", k=fit.params["k"], lam=1.0)
            Tn = lambda t: empirical_T_min(y, lambda v: score(unit, v), t, 0.0)
            return gof.generic_L2(Tn, y, stat.a, left=0.0)
        if family == "normal":
            sd = math.sqrt(fit.params["sigma2"])
            if sd == 0.0:
                raise FitError("zero variance: cannot standardize")
            y = (x - fit.params["mu"]) / sd
            Tn = lambda t: empirical_T_zero_bias(y, t, 1.0)
            return gof.generic_L2(Tn, y, stat.a, left=-math.inf)
        raise ValueError(f"unknown hypothesis family '{family}'")

    fitted = fitted_distribution(family, fit)
    F = lambda v: cdf(fitted, v)
    if stat.tag == "ks":
        return gof.ks(x, F, sqrt_n=stat.sqrt_n)
    if stat.tag == "cvm":
        return gof.cvm(x, F)
    if stat.tag == "ad":
        return gof.ad(x, F)
    if stat.tag == "watson":
        return gof.watson(x, F)
    raise ValueError(f"unknown statistic tag '{stat.tag}'")


# --------------------------------------------------------------------------
# The bootstrap test
# --------------------------------------------------------------------------

def critical_rank(B: int, alpha: float) -> int:
    """1-based order-statistic rank of the bootstrap critical value."""
    return math.ceil((1.0 - alpha) * B)


def bootstrap_replicates(x: np.ndarray, family: str, stats, B: int,
                         stream: Callable[[int], RngStream]):
    """The parametric bootstrap loop behind bootstrap_test and the power study.

    Fits ``x`` and evaluates every statistic on it; replicate j = 1..B is
    drawn from the fitted law on ``stream(j)``, re-fitted, and gives one row
    of ``boot`` holding every statistic.  A replicate whose re-fit or any
    statistic fails is dropped whole.  Returns (fit, observed, boot, failed);
    raises BootstrapError if the observed fit does not converge or more than
    5% of the replicates fail.
    """
    fit = fit_family_retry(family, x)
    if not fit.converged:
        raise BootstrapError(f"fit of the observed sample did not converge: {fit.message}")
    observed = np.array([evaluate_statistic(family, stat, x, fit) for stat in stats])
    fitted = fitted_distribution(family, fit)

    boot = np.empty((B, len(stats)))
    kept = 0
    for j in range(1, B + 1):
        xb = sample(fitted, x.size, stream(j)).values
        try:
            fb = fit_family_retry(family, xb)
            if not fb.converged:
                raise FitError(fb.message)
            boot[kept] = [evaluate_statistic(family, stat, xb, fb) for stat in stats]
        except (FitError, ValueError, FloatingPointError):
            continue
        kept += 1
    failed = B - kept
    if failed > MAX_FAILURE_FRACTION * B:
        raise BootstrapError(
            f"{failed}/{B} bootstrap replicates failed to fit (family={family}, n={x.size})")
    return fit, observed, boot[:kept], failed


def bootstrap_test(s, family: str, stat: StatisticId, B: int = 100,
                   alpha: float = 0.1, rng: RngStream = RngStream(0)) -> TestOutcome:
    """Run the parametric bootstrap test; deterministic for a fixed stream.

    Replicate j draws from the fitted law on the child stream ('rep', j), so
    results do not depend on evaluation order.  A replicate whose re-fit
    fails is retried once from a widened bracket and then dropped; more than
    5% dropped replicates aborts with a BootstrapError.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    x = as_values(s)
    fit, observed, boot, failed = bootstrap_replicates(
        x, family, [stat], B, lambda j: rng.child("rep", j))
    observed = float(observed[0])

    vals = np.sort(boot[:, 0])
    b_eff = vals.size
    crit = float(vals[critical_rank(b_eff, alpha) - 1])
    p_value = float((1 + np.sum(vals >= observed)) / (b_eff + 1))
    return TestOutcome(
        family=family,
        statistic=stat.label,
        statistic_value=observed,
        critical_value=crit,
        p_value=p_value,
        reject=bool(observed > crit),
        fit=fit,
        B=B,
        effective_B=int(b_eff),
        alpha=alpha,
        n=int(x.size),
        failed_replicates=failed,
        rng_fingerprint=rng.fingerprint(),
    )
