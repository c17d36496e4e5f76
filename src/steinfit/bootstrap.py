"""Parametric bootstrap test engine.

The procedure, for a hypothesized family with unknown parameters: fit the
parameters, compute the test statistic, then draw B samples of the same
size from the fitted law, re-fit each one, and recompute the statistic.
The critical value is the ceil((1-alpha)B)-th order statistic of the
bootstrap values (the 90th of 100 at the default alpha = 0.1, B = 100) and
the hypothesis is rejected when the observed statistic strictly exceeds it.

A hypothesis family is one record of ``_FAMILIES``; the weighted-L2
statistic is built from the score of its unit law, with no per-family code.

The observed sample goes through the scalar route (``fit_family_retry``,
``evaluate_statistic``).  The B replicates of one sample are handled as
(rows, n) matrices of at most BLOCK_DRAWS draws each: drawn with one
quantile call, re-fitted together (Burr rows by ``estimation.burr_mle_rows``,
with ``burr_mle`` deciding the rows it leaves unconverged; gamma and normal
rows by their moment estimators), and scored by one kernel call per kind of
statistic (``replicate_statistics``).  Every row's result is independent of
the block it falls in.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gof
# unused here; bench/tracer.py looks these up in this module's namespace
from .characterization import empirical_T_min, empirical_T_zero_bias  # noqa: F401
from .distributions import sample, score  # noqa: F401
from .distributions import (
    DistributionSpec,
    RngStream,
    as_values,
    catalog_rows,
    cdf,
    make_distribution,
    sample_rows,
)
from .estimation import (
    FitError,
    FitResult,
    burr_mle,
    burr_mle_rows,
    gamma_fit,
    moments_rows,
    normal_fit,
)
from .gof import StatisticId

MAX_FAILURE_FRACTION = 0.05
# what fails one replicate; any other exception is a bug and propagates
REPLICATE_ERRORS = (FitError, ValueError, FloatingPointError)

# the replicates are handled in blocks of at most this many draws (and at
# least one row), which bounds the engine's memory whatever B and n are
BLOCK_DRAWS = 2 ** 18


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
# Hypothesis families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    law: str  # catalog family of the fitted law (Burr XII at scale 1)
    operator: str  # the unit law's operator variant: positive_axis_min or real_line
    fit: Callable  # sample -> FitResult
    fit_rows: Callable  # (X, fit) -> ((rows,) array per parameter, rows ``fit`` would fit)
    unit: Callable  # fit params -> (shift, scale, params of the unit law)


def _burr_rows(X: np.ndarray, fit: FitResult):
    # burr_mle raises FitError on these rows
    ok = np.all(np.isfinite(X) & (X > 0), axis=1)
    ok[ok] = np.ptp(X[ok], axis=1) > 0
    rows = np.flatnonzero(ok)
    params = {"k": np.full(X.shape[0], math.nan), "c": np.full(X.shape[0], math.nan)}
    params["k"][rows], params["c"][rows], converged = burr_mle_rows(X[rows], fit.params["c"])
    for i in rows[~converged]:
        try:
            fb = fit_family_retry("burr", X[i])
        except REPLICATE_ERRORS:
            ok[i] = False
            continue
        ok[i] = fb.converged
        params["k"][i], params["c"][i] = fb.params["k"], fb.params["c"]
    return params, ok


def _gamma_rows(X: np.ndarray, fit: FitResult):
    mean, var = moments_rows(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        params = {"k": mean * mean / var, "lam": var / mean}
    return params, np.all(X > 0, axis=1) & (var != 0.0)


def _normal_rows(X: np.ndarray, fit: FitResult):
    mean, var = moments_rows(X)
    return {"mu": mean, "sigma2": var}, var != 0.0


# the estimators are looked up in this module at call time, where the tests
# and bench/tracer.py replace them
_FAMILIES = {
    "burr": _Family("burr_xii", "positive_axis_min", lambda x: burr_mle(x), _burr_rows,
                    lambda p: (0.0, 1.0, {"k": p["k"], "c": p["c"]})),
    "gamma": _Family("gamma", "positive_axis_min", lambda x: gamma_fit(x), _gamma_rows,
                     lambda p: (0.0, p["lam"], {"k": p["k"], "lam": 1.0})),
    "normal": _Family("normal", "real_line", lambda x: normal_fit(x), _normal_rows,
                      lambda p: (p["mu"], math.sqrt(p["sigma2"]), {"mu": 0.0, "sigma2": 1.0})),
}
FAMILIES = tuple(_FAMILIES)


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ValueError(f"unknown hypothesis family '{name}'; known: {tuple(_FAMILIES)}")
    return _FAMILIES[name]


def fit_family_retry(family: str, x) -> FitResult:
    """Fit ``x`` by the family's estimator; burr_mle widens its own c-bracket."""
    return _family(family).fit(x)


def fitted_distribution(family: str, fit: FitResult) -> DistributionSpec:
    return make_distribution(_family(family).law, **fit.params)


def evaluate_statistic(family: str, stat: StatisticId, x, fit: FitResult) -> float:
    """Compute one statistic on a sample given the family fit."""
    x = as_values(x)
    if stat.tag == "burr_B":
        if family != "burr":
            raise ValueError("the burr_B statistic applies to the burr family only")
        return gof.burr_B_closed(x, fit.params["k"], fit.params["c"], stat.a)

    if stat.tag == "generic_L2":
        return _l2_statistic(family, stat.a, x, fit.params)

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


def _l2_statistic(family: str, a: float, x: np.ndarray, params: dict) -> float:
    """The weighted-L2 statistic of the unit law's operator, from its score."""
    rec = _family(family)
    shift, scale, unit = rec.unit(params)
    y = np.sort((x - shift) / scale)
    min_type = rec.operator == "positive_axis_min"
    if min_type and not y[0] > 0:  # checked before the score divides by y
        raise ValueError("observations must be positive and finite")
    s = catalog_rows(rec.law, "score", unit, y)
    pieces = gof.min_pieces(y, -s) if min_type else gof.real_line_pieces(y, s)
    return gof.generic_L2(*pieces, a, y.size)


# --------------------------------------------------------------------------
# Batched replicates
# --------------------------------------------------------------------------

def replicate_statistics(family: str, stats, X: np.ndarray, params: dict) -> np.ndarray:
    """Every statistic on every row of X at that row's fit: a (rows,
    len(stats)) array, NaN where a statistic cannot be computed.

    X holds sorted rows; ``params`` maps each parameter name to a (rows,)
    array.  B_{n,a} for all a-values is one ``gof.burr_B_rows`` call and the
    EDF statistics share one fitted-CDF matrix; the L2 statistic is one
    ``gof.generic_L2`` call per row.
    """
    n = X.shape[1]
    out = np.empty((X.shape[0], len(stats)))
    b_cols = [i for i, stat in enumerate(stats) if stat.tag == "burr_B"]
    if b_cols:
        if family != "burr":
            raise ValueError("the burr_B statistic applies to the burr family only")
        out[:, b_cols] = gof.burr_B_rows(X, params["k"], params["c"],
                                         [stats[i].a for i in b_cols])
    edf_tags = {stat.tag for stat in stats if stat.tag in gof.EDF_TAGS}
    if edf_tags:
        columns = {name: v[:, None] for name, v in params.items()}
        z = catalog_rows(_family(family).law, "cdf", columns, X)
        edf = gof.edf_rows(z, edf_tags)
    for i, stat in enumerate(stats):
        if stat.tag in edf_tags:
            out[:, i] = edf[stat.tag] * math.sqrt(n) if stat.sqrt_n else edf[stat.tag]
        elif stat.tag == "generic_L2":
            for r in range(X.shape[0]):
                try:
                    out[r, i] = _l2_statistic(family, stat.a, X[r],
                                              {name: float(v[r]) for name, v in params.items()})
                except REPLICATE_ERRORS:
                    out[r, i] = math.nan
    return out


# --------------------------------------------------------------------------
# The bootstrap test
# --------------------------------------------------------------------------

def critical_rank(B: int, alpha: float) -> int:
    """1-based order-statistic rank of the bootstrap critical value."""
    return math.ceil((1.0 - alpha) * B)


def bootstrap_replicates(x: np.ndarray, family: str, stats, B: int,
                         stream: Callable[[int], RngStream]):
    """The parametric bootstrap behind bootstrap_test and the power study.

    Fits ``x`` and evaluates every statistic on it; replicate j = 1..B is
    drawn from the fitted law on ``stream(j)``, re-fitted, and gives one row
    of ``boot`` holding every statistic.  A replicate whose re-fit or any
    statistic fails or is not finite is dropped whole.  Returns (fit,
    observed, boot, failed); raises BootstrapError if the observed fit does
    not converge, a statistic on it is not finite, or over 5% of replicates fail.
    """
    fit = fit_family_retry(family, x)
    if not fit.converged:
        raise BootstrapError(f"fit of the observed sample did not converge: {fit.message}")
    observed = np.array([evaluate_statistic(family, stat, x, fit) for stat in stats])
    if not np.all(np.isfinite(observed)):
        raise BootstrapError(f"non-finite statistic on the observed sample: {observed}")
    fitted = fitted_distribution(family, fit)

    blocks = []
    rows = max(1, BLOCK_DRAWS // x.size)
    for first in range(1, B + 1, rows):
        draws = sample_rows(fitted, x.size,
                            [stream(j) for j in range(first, min(first + rows, B + 1))])
        params, ok = _family(family).fit_rows(draws, fit)
        block = replicate_statistics(family, stats, np.sort(draws[ok], axis=1),
                                     {name: v[ok] for name, v in params.items()})
        blocks.append(block[np.all(np.isfinite(block), axis=1)])
    boot = np.concatenate(blocks)
    failed = B - boot.shape[0]
    if failed > MAX_FAILURE_FRACTION * B:
        raise BootstrapError(
            f"{failed}/{B} bootstrap replicates failed to fit (family={family}, n={x.size})")
    return fit, observed, boot, failed


def bootstrap_test(s, family: str, stat: StatisticId, B: int = 100,
                   alpha: float = 0.1, rng: RngStream = RngStream(0)) -> TestOutcome:
    """Run the parametric bootstrap test; deterministic for a fixed stream.

    Replicate j draws from the fitted law on the child stream ('rep', j), so
    results do not depend on evaluation order.  A replicate whose re-fit
    fails is dropped; more than 5% dropped replicates aborts with a
    BootstrapError.
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
