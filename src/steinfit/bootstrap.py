"""Parametric bootstrap test engine.

The procedure, for a hypothesized family with unknown parameters: fit the
parameters, compute the test statistic, then draw B samples of the same
size from the fitted law, re-fit each one, and recompute the statistic.
The critical value is the ceil((1-alpha)B)-th order statistic of the
bootstrap values (the 90th of 100 at the default alpha = 0.1, B = 100) and
the hypothesis is rejected when the observed statistic strictly exceeds it.

A hypothesis family is one record of ``_FAMILIES``; the weighted-L2
statistic is built from the score of its unit law, with no per-family code.

The B replicates of one sample are run by ``bootstrap_block``, the one
engine behind ``bootstrap_test`` and the power study: they are handled as
(rows, n) matrices of at most BLOCK_DRAWS draws each, drawn with one
quantile call, re-fitted together by the family's row fit in ``estimation``
(which refuses the rows its scalar fit would), and scored by one kernel call
per kind of statistic (``replicate_statistics``).  ``bootstrap_test`` fits
and scores its observed sample by ``fit_family_retry`` and
``evaluate_statistic``, for the full fit record its outcome reports; the
power study's ``bootstrap_rows`` fits and scores many observed samples as
the rows of one matrix, with one row-fit and one kernel call.  Every row's
result is independent of the block it falls in, so each estimator and
statistic has one formula, whichever sample it fits or scores.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gof
# unused here; bench/tracer.py looks these up in this module's namespace
from .characterization import empirical_T_min, empirical_T_zero_bias  # noqa: F401
from .distributions import cdf, sample, score  # noqa: F401
from .distributions import (
    DistributionSpec,
    ParameterError,
    RngStream,
    as_values,
    catalog_rows,
    make_distribution,
    sample_rows,
)
from .estimation import (
    FitResult,
    burr_mle,
    burr_mle_rows,
    gamma_fit,
    gamma_fit_rows,
    normal_fit,
    normal_fit_rows,
)
from .gof import StatisticId

MAX_FAILURE_FRACTION = 0.05

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
        return {**vars(self), "fit": self.fit.to_dict()}


# --------------------------------------------------------------------------
# Hypothesis families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    law: str  # catalog family of the fitted law (Burr XII at scale 1)
    operator: str  # the unit law's operator variant: positive_axis_min or real_line
    params: tuple  # the names of the fit's parameters, in order
    fit: Callable  # sample -> FitResult
    # (X, start) -> (an array per parameter, in order; each row's reason, "" if fitted; its
    # steps), where start is the law the rows were drawn from, or None for the scalar fit's start
    fit_rows: Callable
    unit: Callable  # fit params -> (shift, scale, params of the unit law)


# the estimators are looked up in this module at call time, where the tests
# and bench/tracer.py replace them
_FAMILIES = {
    "burr": _Family("burr_xii", "positive_axis_min", ("k", "c"), lambda x: burr_mle(x),
                    lambda X, start: burr_mle_rows(X, 1.0 if start is None else start["c"]),
                    lambda p: (0.0, 1.0, {"k": p["k"], "c": p["c"]})),
    "gamma": _Family("gamma", "positive_axis_min", ("k", "lam"), lambda x: gamma_fit(x),
                     lambda X, start: gamma_fit_rows(X),
                     lambda p: (0.0, p["lam"], {"k": p["k"], "lam": 1.0})),
    "normal": _Family("normal", "real_line", ("mu", "sigma2"), lambda x: normal_fit(x),
                      lambda X, start: normal_fit_rows(X),
                      lambda p: (p["mu"], np.sqrt(p["sigma2"]), {"mu": 0.0, "sigma2": 1.0})),
}
FAMILIES = tuple(_FAMILIES)


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ValueError(f"unknown hypothesis family '{name}'; known: {tuple(_FAMILIES)}")
    return _FAMILIES[name]


def fit_family_retry(family: str, x) -> FitResult:
    """Fit ``x`` by the family's estimator."""
    return _family(family).fit(x)


def fitted_distribution(family: str, fit: FitResult) -> DistributionSpec:
    return make_distribution(_family(family).law, **fit.params)


def evaluate_statistic(family: str, stat: StatisticId, x, fit: FitResult) -> float:
    """Compute one statistic on a sample given the family fit, as the
    one-row case of ``replicate_statistics``.  Raises ValueError for the L2
    statistic on data the piece builders refuse."""
    X = np.sort(as_values(x))[None]
    params = {name: np.array([value], dtype=float) for name, value in fit.params.items()}
    if stat.tag == "generic_L2" and not _standardized(_family(family), X, params)[1][0]:
        raise ValueError("the L2 statistic needs standardized observations that are finite, "
                         "and positive for a min-type operator")
    return float(replicate_statistics(family, [stat], X, params)[0, 0])


def _standardized(rec: _Family, X: np.ndarray, params: dict):
    """Sorted rows X on the scale of the unit law, and the rows the piece
    builders accept: finite, and positive for the min-type operator."""
    shift, scale, _ = rec.unit({name: v[:, None] for name, v in params.items()})
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are refused
        Y = (X - shift) / scale
    ok = np.isfinite(Y).all(axis=1)
    if rec.operator == "positive_axis_min":  # checked before the score divides by y
        ok &= Y[:, 0] > 0
    return Y, ok


def _l2_rows(family: str, a: float, X: np.ndarray, params: dict) -> np.ndarray:
    """The weighted-L2 statistic of the unit law's operator, from its score,
    on every row of sorted X: one kernel call, NaN on a refused row."""
    rec = _family(family)
    Y, ok = _standardized(rec, X, params)
    _, _, unit = rec.unit({name: v[ok, None] for name, v in params.items()})
    Y = Y[ok]
    s = catalog_rows(rec.law, "score", unit, Y)
    if rec.operator == "positive_axis_min":
        pieces = gof.min_pieces_rows(Y, -s)
    else:
        pieces = gof.real_line_pieces_rows(Y, s)
    out = np.full(X.shape[0], math.nan)
    out[ok] = gof.generic_L2_rows(*pieces, a, X.shape[1])
    return out


# --------------------------------------------------------------------------
# Batched replicates
# --------------------------------------------------------------------------

def check_statistics(family: str, stats) -> None:
    """Raise ValueError if ``gof.STATISTICS`` restricts a statistic to another family."""
    for stat in stats:
        only = gof.STATISTICS[stat.tag].family
        if only not in (None, family):
            raise ValueError(f"the {stat.tag} statistic applies to the {only} family only")


def replicate_statistics(family: str, stats, X: np.ndarray, params: dict) -> np.ndarray:
    """Every statistic on every row of X at that row's fit: a (rows,
    len(stats)) array, NaN where a statistic cannot be computed.

    X holds sorted rows; ``params`` maps each parameter name to a (rows,)
    array.  B_{n,a} for all a-values is one ``gof.burr_B_rows`` call, the
    EDF statistics share one fitted-CDF matrix, and each L2 statistic is one
    ``gof.generic_L2_rows`` call.
    """
    check_statistics(family, stats)
    out = np.empty((X.shape[0], len(stats)))
    b_cols = [i for i, stat in enumerate(stats) if stat.tag == "burr_B"]
    if b_cols:
        out[:, b_cols] = gof.burr_B_rows(X, params["k"], params["c"],
                                         [stats[i].a for i in b_cols])
    edf_tags = {stat.tag for stat in stats if stat.tag in gof.EDF_TAGS}
    if edf_tags:
        columns = {name: v[:, None] for name, v in params.items()}
        z = catalog_rows(_family(family).law, "cdf", columns, X)
        edf = gof.edf_rows(z, edf_tags)
    for i, stat in enumerate(stats):
        if stat.tag in edf_tags:
            out[:, i] = edf[stat.tag]
        elif stat.tag == "generic_L2":
            out[:, i] = _l2_rows(family, stat.a, X, params)
    return out


# --------------------------------------------------------------------------
# The bootstrap test
# --------------------------------------------------------------------------

def critical_rank(B: int, alpha: float) -> int:
    """1-based order-statistic rank of the bootstrap critical value."""
    return math.ceil((1.0 - alpha) * B)


def decide(observed, boot: np.ndarray, alpha: float):
    """The test's decision for each column of ``boot`` against its entry of
    ``observed``: (critical value, p-value, reject) arrays, one entry per column.

    The critical value is the critical_rank(B_eff, alpha)-th order statistic
    of the column's B_eff values; the p-value is (1 + #{boot >= observed}) /
    (B_eff + 1), ties counted; the hypothesis is rejected when the observed
    value strictly exceeds the critical value.
    """
    b_eff = boot.shape[0]
    crit = np.sort(boot, axis=0)[critical_rank(b_eff, alpha) - 1]
    p_value = (1 + np.sum(boot >= observed, axis=0)) / (b_eff + 1)
    return crit, p_value, observed > crit


def bootstrap_replicates(x: np.ndarray, family: str, stats, B: int,
                         stream: Callable[[int], RngStream]):
    """The parametric bootstrap behind bootstrap_test.

    Fits ``x`` and evaluates every statistic on it, then runs the B
    replicates of ``bootstrap_block``, replicate j on ``stream(j)``.
    Returns (fit, observed, boot, failed); raises BootstrapError if the
    observed fit does not converge, a statistic on it is not finite, or the
    block does.
    """
    fit = fit_family_retry(family, x)
    if not fit.converged:
        raise BootstrapError(f"fit of the observed sample did not converge: {fit.message}")
    observed = np.array([evaluate_statistic(family, stat, x, fit) for stat in stats])
    if not np.all(np.isfinite(observed)):
        raise BootstrapError(f"non-finite statistic on the observed sample: {observed}")
    boot, failed = bootstrap_block(family, stats, fitted_distribution(family, fit), x.size,
                                   [stream(j) for j in range(1, B + 1)])
    return fit, observed, boot, failed


def bootstrap_rows(X: np.ndarray, family: str, stats, streams: Callable[[int], list]):
    """bootstrap_replicates on every row of X, row r's replicates on
    ``streams(r)``: one row fit from the scalar fit's start and one
    ``replicate_statistics`` call for the observed rows, then each row's
    ``bootstrap_block``.  Returns (observed, boot) per row, or None for a
    row on which bootstrap_replicates raises: its fit is refused (as the
    scalar fit refuses it), a statistic on it is not finite, or its block
    fails.  A row's result does not depend on the other rows.
    """
    rec = _family(family)
    *values, reason, _ = rec.fit_rows(X, None)
    ok = reason == ""
    params = dict(zip(rec.params, values))
    observed = replicate_statistics(family, stats, np.sort(X[ok], axis=1),
                                    {name: v[ok] for name, v in params.items()})
    out = [None] * X.shape[0]
    for r, obs in zip(np.flatnonzero(ok), observed):
        if not np.all(np.isfinite(obs)):
            continue
        try:
            fitted = make_distribution(rec.law, **{name: float(v[r]) for name, v in params.items()})
            out[r] = obs, bootstrap_block(family, stats, fitted, X.shape[1], streams(r))[0]
        except (BootstrapError, ParameterError):
            pass
    return out


def bootstrap_block(family: str, stats, fitted: DistributionSpec, n: int, streams):
    """The B = len(streams) replicates of a sample of size n whose fit is
    ``fitted``: replicate j is drawn from that law on ``streams[j - 1]``,
    re-fitted by the family's row fit from the fitted parameters, and gives
    one row of ``boot`` holding every statistic.  The replicates are handled
    in blocks of at most BLOCK_DRAWS draws.  A replicate whose re-fit or any
    statistic fails or is not finite is dropped whole.  Returns (boot,
    failed); raises BootstrapError if over 5% of the replicates fail.
    """
    rec = _family(family)
    B = len(streams)
    blocks = []
    rows = max(1, BLOCK_DRAWS // n)
    for first in range(0, B, rows):
        draws = sample_rows(fitted, n, streams[first:first + rows])
        *values, reason, _ = rec.fit_rows(draws, fitted.param_dict)
        ok = reason == ""
        block = replicate_statistics(family, stats, np.sort(draws[ok], axis=1),
                                     {name: v[ok] for name, v in zip(rec.params, values)})
        blocks.append(block[np.all(np.isfinite(block), axis=1)])
    boot = np.concatenate(blocks)
    failed = B - boot.shape[0]
    if failed > MAX_FAILURE_FRACTION * B:
        raise BootstrapError(
            f"{failed}/{B} bootstrap replicates failed to fit (family={family}, n={n})")
    return boot, failed


def bootstrap_test(s, family: str, stat: StatisticId, B: int = 100,
                   alpha: float = 0.1, rng: RngStream = RngStream(0)) -> TestOutcome:
    """Run the parametric bootstrap test; deterministic for a fixed stream.

    Replicate j draws from the fitted law on the child stream ('rep', j), so
    results do not depend on evaluation order.  A replicate whose re-fit
    fails is dropped; more than 5% dropped replicates aborts with a
    BootstrapError.
    """
    # any integer but a bool, numpy's included
    if isinstance(B, bool) or not isinstance(B, numbers.Integral) or B < 1:
        raise ValueError("B must be >= 1")
    if not isinstance(alpha, numbers.Real) or not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    x = as_values(s)
    reps = rng.children(("rep",), range(1, B + 1))
    fit, observed, boot, failed = bootstrap_replicates(
        x, family, [stat], B, lambda j: reps[j - 1])
    (crit,), (p_value,), (reject,) = decide(observed, boot, alpha)
    return TestOutcome(
        family=family,
        statistic=stat.label,
        statistic_value=float(observed[0]),
        critical_value=float(crit),
        p_value=float(p_value),
        reject=bool(reject),
        fit=fit,
        B=B,
        effective_B=boot.shape[0],
        alpha=alpha,
        n=int(x.size),
        failed_replicates=failed,
        rng_fingerprint=rng.fingerprint(),
    )
