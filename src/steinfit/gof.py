"""Goodness-of-fit statistics.

The centerpiece is the weighted L2 distance between the empirical
characterization operator and the empirical CDF,

    B_{n,a} = n * integral_0^inf |T_n(t) - F_n(t)|^2 exp(-a t) dt,

specialized to the Burr Type XII family where it has a closed form, plus a
generic quadrature version for arbitrary piecewise-smooth operator
estimates, and the four classical EDF statistics (Kolmogorov-Smirnov,
Cramer-von Mises, Anderson-Darling, Watson) computed from a fitted CDF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special as sp

from .distributions import as_values

# config / CLI name -> statistic tag
STAT_NAMES = {"B": "burr_B", "L2": "generic_L2", "ks": "ks", "cvm": "cvm",
              "ad": "ad", "watson": "watson"}
STAT_TAGS = tuple(STAT_NAMES.values())

AD_CLAMP = 1e-15  # fitted CDF values are clamped to [AD_CLAMP, 1 - AD_CLAMP]


@dataclass(frozen=True)
class StatisticId:
    """Identifier for a test statistic.

    ``a`` is the exponential-weight tuning parameter (burr_B / generic_L2
    only).  ``sqrt_n`` switches the Kolmogorov-Smirnov statistic to its
    sqrt(n)-scaled variant; the default, unscaled version is the one used
    for bootstrap tests (the scaling is a monotone transform, so bootstrap
    decisions are unaffected either way).
    """

    tag: str
    a: float | None = None
    sqrt_n: bool = False

    def __post_init__(self):
        if self.tag not in STAT_TAGS:
            raise ValueError(f"unknown statistic tag '{self.tag}'; known: {STAT_TAGS}")
        if self.tag in ("burr_B", "generic_L2"):
            if self.a is None or not self.a > 0:
                raise ValueError(f"statistic '{self.tag}' needs a weight parameter a > 0")
        elif self.a is not None:
            raise ValueError(f"statistic '{self.tag}' takes no weight parameter")
        if self.sqrt_n and self.tag != "ks":
            raise ValueError("sqrt_n applies to the ks statistic only")

    @property
    def label(self) -> str:
        if self.tag == "burr_B":
            return f"B_{_trim(self.a)}"
        if self.tag == "generic_L2":
            return f"L2_{_trim(self.a)}"
        return {"ks": "KS", "cvm": "CM", "ad": "AD", "watson": "WA"}[self.tag]


def _trim(a: float) -> str:
    return str(int(a)) if float(a).is_integer() else str(a)


# --------------------------------------------------------------------------
# Burr Type XII characterization statistic
# --------------------------------------------------------------------------

def burr_coefficients(x, k_hat: float, c_hat: float):
    """Per-observation operator coefficients for the Burr family:

        A1_j = c(k+1) x^(c-1)/(1+x^c) - (c-1)/x      (score, negated)
        A2_j = -c(k+1) x^c/(1+x^c)

    computed through the logistic sigmoid of c*log(x) so large powers never
    overflow.  They satisfy x*A1 = -A2 - (c-1) identically.
    """
    x = np.asarray(x, dtype=float)
    ratio = sp.expit(c_hat * np.log(x))  # x^c / (1 + x^c)
    A2 = -c_hat * (k_hat + 1.0) * ratio
    A1 = (-A2 - (c_hat - 1.0)) / x
    return A1, A2


def burr_B_closed(s, k_hat: float, c_hat: float, a: float) -> float:
    """Closed-form evaluation of the Burr statistic B_{n,a}.

    This is the double-sum formula over order statistics, evaluated through
    prefix sums (an algebraic regrouping of the pair sum, O(n) flops) with
    expm1/gammainc-stabilized terms so that near-zero order statistics do
    not lose precision to cancellation.  Agrees with burr_B_quadrature to
    better than 1e-8 relative; the quadrature route stays the authority.
    """
    x = np.sort(as_values(s))
    n = x.size
    if not (a > 0 and k_hat > 0 and c_hat > 0):
        raise ValueError("burr_B_closed needs a, k_hat, c_hat > 0")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("observations must be positive and finite")
    A1, A2 = burr_coefficients(x, k_hat, c_hat)
    e = np.exp(-a * x)
    one_m_e = -np.expm1(-a * x)

    # pair block: sum_{j<l} A1_l * bracket_j + A2_j/a * e_l, via prefix sums
    inner = (2.0 * A1 / a ** 3) * one_m_e + (A2 / a ** 2) * e \
        + ((c_hat - 2.0) / a ** 2) * e - (x / a) * e
    csum_inner = np.concatenate(([0.0], np.cumsum(inner)[:-1]))
    csum_A2 = np.concatenate(([0.0], np.cumsum(A2)[:-1]))
    off = (2.0 / n) * (A1 @ csum_inner
                       + (A1 * e) @ csum_A2 / a ** 2
                       + (e @ csum_A2) / a)

    # diagonal block; the bracket (2/a^3)(1 - e(1 + ax + (ax)^2/2)) + ... is
    # evaluated as a regularized incomplete gamma plus a positive remainder
    diag_bracket = (2.0 / a ** 3) * sp.gammainc(3.0, a * x) + (x * x / a) * e
    j0 = np.arange(n, dtype=float)
    diag = (1.0 / n) * ((A1 * A1) @ diag_bracket
                        + (2.0 * c_hat / a ** 2) * ((j0 * A1) @ e)
                        + (2.0 / a) * (A2 @ e))

    single = (2.0 * c_hat / (a * n)) * ((j0 + 1.0) @ e) - e.sum() / (a * n)
    return float(off + diag + single)


def burr_B_quadrature(s, k_hat: float, c_hat: float, a: float) -> float:
    """Oracle evaluation of B_{n,a} by exact piecewise integration.

    Between consecutive order statistics the deviation T_n - F_n is linear
    in t, so every piece of |T_n - F_n|^2 exp(-a t) integrates in closed
    form (incomplete-gamma moments); the only error is floating-point
    accumulation.
    """
    x = np.sort(as_values(s))
    n = x.size
    if not (a > 0 and k_hat > 0 and c_hat > 0):
        raise ValueError("burr_B_quadrature needs a, k_hat, c_hat > 0")
    A1, _ = burr_coefficients(x, k_hat, c_hat)
    # on (x_i, x_{i+1}): n*T_n(t) = S_i + t*R_i, n*F_n(t) = i
    S = np.concatenate(([0.0], np.cumsum(A1 * x)))
    R = np.concatenate((np.cumsum(A1[::-1])[::-1], [0.0]))
    alpha = S - np.arange(n + 1)
    t0 = np.concatenate(([0.0], x))
    with np.errstate(over="ignore"):
        w = np.exp(-a * t0)

    beta = R[:-1]
    d = x - t0[:-1]
    ap = alpha[:-1] + beta * t0[:-1]
    i0 = sp.gammainc(1.0, a * d) / a
    i1 = sp.gammainc(2.0, a * d) / a ** 2
    i2 = 2.0 * sp.gammainc(3.0, a * d) / a ** 3
    interior = w[:-1] * (ap * ap * i0 + 2.0 * ap * beta * i1 + beta * beta * i2)
    tail = alpha[-1] ** 2 * w[-1] / a
    return float((interior.sum() + tail) / n)


def _burr_B_adaptive(s, k_hat, c_hat, a):
    """Third, fully independent route: black-box adaptive quadrature of the
    defining integral.  Slow; used in tests to cross-check the oracle."""
    x = np.sort(as_values(s))
    n = x.size
    A1, _ = burr_coefficients(x, k_hat, c_hat)

    def deviation(t):
        return A1 @ np.minimum(x, t) / n - np.searchsorted(x, t, side="right") / n

    total = 0.0
    edges = [0.0] + list(x) + [math.inf]
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda t: deviation(t) ** 2 * math.exp(-a * t),
                                lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
    return n * total


# --------------------------------------------------------------------------
# Generic weighted-L2 characterization statistic
# --------------------------------------------------------------------------

def generic_L2(Tn, s, a: float, left: float = 0.0, breakpoints=None,
               quad_tol: float = 1e-11) -> float:
    """n * integral |Tn(t) - F_n(t)|^2 exp(-a t) dt over the support.

    ``Tn`` is the operator estimate as a callable of t, piecewise smooth
    between the breakpoints (default: the order statistics).  ``left`` is
    the support's lower endpoint; with left = -inf the deviation must
    vanish below the smallest breakpoint (true for the standardized
    real-line operator), since exp(-a t) blows up there.
    """
    x = np.sort(as_values(s))
    n = x.size
    if not a > 0:
        raise ValueError("weight parameter a must be > 0")
    brk = np.unique(np.asarray(breakpoints if breakpoints is not None else x, dtype=float))

    def edf(t):
        return np.searchsorted(x, t, side="right") / n

    def dev2(t):
        return (Tn(t) - edf(t)) ** 2 * math.exp(-a * t)

    total = 0.0
    if math.isfinite(left):
        lo = left
    else:
        lo = brk[0]  # deviation vanishes below by precondition
    for hi in list(brk[brk > lo]) + [math.inf]:
        val, _ = integrate.quad(dev2, lo, hi, epsabs=quad_tol, epsrel=1e-10, limit=200)
        total += val
        lo = hi
    return n * total


# --------------------------------------------------------------------------
# Classical EDF statistics
# --------------------------------------------------------------------------

def _fitted_values(s, F):
    x = np.sort(as_values(s))
    return np.asarray(F(x), dtype=float), x.size


def ks(s, F, sqrt_n: bool = False) -> float:
    """Kolmogorov-Smirnov statistic max{D+, D-} for a fitted CDF F."""
    z, n = _fitted_values(s, F)
    j = np.arange(1, n + 1)
    d_plus = np.max(j / n - z)
    d_minus = np.max(z - (j - 1) / n)
    val = max(d_plus, d_minus)
    return float(val * math.sqrt(n)) if sqrt_n else float(val)


def cvm(s, F) -> float:
    """Cramer-von Mises statistic 1/(12n) + sum (F(X_(j)) - (2j-1)/(2n))^2."""
    z, n = _fitted_values(s, F)
    j = np.arange(1, n + 1)
    return float(1.0 / (12 * n) + np.sum((z - (2 * j - 1) / (2 * n)) ** 2))


def ad(s, F) -> float:
    """Anderson-Darling statistic.

    Fitted CDF values at extreme order statistics can round to 0 or 1; they
    are clamped to [1e-15, 1-1e-15] before taking logs, and a warning is
    emitted when clamping actually occurs.
    """
    z, n = _fitted_values(s, F)
    if np.any(z <= 0.0) or np.any(z >= 1.0):
        warnings.warn("fitted CDF values clamped away from {0,1} in the AD statistic",
                      RuntimeWarning, stacklevel=2)
    z = np.clip(z, AD_CLAMP, 1.0 - AD_CLAMP)
    j = np.arange(1, n + 1)
    s_sum = np.sum((2 * j - 1) * np.log(z) + (2 * (n - j) + 1) * np.log1p(-z))
    return float(-n - s_sum / n)


def watson(s, F) -> float:
    """Watson statistic CM - n (mean(F(X_(j))) - 1/2)^2."""
    z, n = _fitted_values(s, F)
    return float(cvm(s, F) - n * (np.mean(z) - 0.5) ** 2)
