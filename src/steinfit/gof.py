"""Goodness-of-fit statistics.

The centerpiece is the weighted L2 distance between the empirical
characterization operator and the empirical CDF,

    B_{n,a} = n * integral_0^inf |T_n(t) - F_n(t)|^2 exp(-a t) dt,

specialized to the Burr Type XII family where it has a closed form, plus
one exact piecewise integrator for every weighted-L2 statistic, and the
four classical EDF statistics (Kolmogorov-Smirnov, Cramer-von Mises,
Anderson-Darling, Watson) computed from a fitted CDF.
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


def burr_B_rows(X, k_hat, c_hat, a_values):
    """burr_B_closed of every row of X at that row's fit, for each a-value:
    a (rows, len(a_values)) array.

    X holds sorted, positive, finite rows; k_hat and c_hat hold one value
    per row.  The Burr coefficients and the A2 prefix sums are computed once
    and shared by all a-values.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    c = np.asarray(c_hat, dtype=float)[:, None]
    A1, A2 = burr_coefficients(X, np.asarray(k_hat, dtype=float)[:, None], c)
    csum_A2 = _prefix_sums(A2)
    j0 = np.arange(n, dtype=float)
    out = np.empty((X.shape[0], len(a_values)))
    for col, a in enumerate(a_values):
        e = np.exp(-a * X)
        one_m_e = -np.expm1(-a * X)
        inner = (2.0 * A1 / a ** 3) * one_m_e + (A2 / a ** 2) * e \
            + ((c - 2.0) / a ** 2) * e - (X / a) * e
        off = (2.0 / n) * (_row_dot(A1, _prefix_sums(inner))
                           + _row_dot(A1 * e, csum_A2) / a ** 2
                           + _row_dot(e, csum_A2) / a)
        diag_bracket = (2.0 / a ** 3) * sp.gammainc(3.0, a * X) + (X * X / a) * e
        diag = (1.0 / n) * (_row_dot(A1 * A1, diag_bracket)
                            + (2.0 * c[:, 0] / a ** 2) * _row_dot(j0 * A1, e)
                            + (2.0 / a) * _row_dot(A2, e))
        single = (2.0 * c[:, 0] / (a * n)) * _row_dot(e, j0 + 1.0) - e.sum(axis=1) / (a * n)
        out[:, col] = off + diag + single
    return out


def _prefix_sums(v):
    """Row-wise sums of the entries before each one (0 for the first)."""
    out = np.zeros_like(v)
    np.cumsum(v[:, :-1], axis=1, out=out[:, 1:])
    return out


def _row_dot(u, v):
    """Dot product of each row of u with the same row of v (or with v itself
    when v is 1-d), made by the BLAS dot that ``@`` uses on one row, so each
    value is bit-identical to that of the one-row formula."""
    return np.matmul(u[:, None, :], v[..., None])[:, 0, 0]


def burr_B_quadrature(s, k_hat: float, c_hat: float, a: float) -> float:
    """Oracle evaluation of B_{n,a} by generic_L2's exact piecewise
    integration; the only error is floating-point accumulation."""
    x = np.sort(as_values(s))
    if not (a > 0 and k_hat > 0 and c_hat > 0):
        raise ValueError("burr_B_quadrature needs a, k_hat, c_hat > 0")
    return generic_L2(*min_pieces(x, burr_coefficients(x, k_hat, c_hat)[0]), a, x.size)


def _burr_B_adaptive(s, k_hat, c_hat, a):
    """Third, fully independent route: black-box adaptive quadrature of the
    defining integral.  Slow; used in tests to cross-check the oracle."""
    x = np.sort(as_values(s))
    A1, _ = burr_coefficients(x, k_hat, c_hat)
    deviation = lambda t: (A1 @ np.minimum(x, t) - np.searchsorted(x, t, side="right")) / x.size
    return _L2_adaptive(deviation, x, a, 0.0)


# --------------------------------------------------------------------------
# Generic weighted-L2 characterization statistic
# --------------------------------------------------------------------------

def min_pieces(x, coef):
    """generic_L2 pieces of the min-type operator n*T_n(t) = sum_j coef_j
    min(x_j, t) on sorted positive x: they start at 0 and at each order statistic."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all() or (x <= 0).any():
        raise ValueError("observations must be positive and finite")
    if (x[1:] < x[:-1]).any():
        raise ValueError("observations must be sorted")
    coef = np.asarray(coef, dtype=float)
    alpha = np.concatenate(([0.0], np.cumsum(coef * x))) - np.arange(x.size + 1)
    return np.concatenate(([0.0], x)), alpha, np.append(np.cumsum(coef[::-1])[::-1], 0.0)


def real_line_pieces(y, score):
    """generic_L2 pieces of the real-line operator n*T_n(t) = sum_{y_j <= t}
    score_j (t - y_j) on sorted y: they start at each order statistic, as
    the deviation vanishes below the smallest.  The standard normal's
    zero-bias operator is the case score = -y."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("observations must be finite")
    if (y[1:] < y[:-1]).any():
        raise ValueError("observations must be sorted")
    score = np.asarray(score, dtype=float)
    return y, -np.cumsum(score * y) - np.arange(1, y.size + 1), np.cumsum(score)


def generic_L2(t0, alpha, beta, a: float, n: int) -> float:
    """n * integral |T_n(t) - F_n(t)|^2 exp(-a t) dt, where n*(T_n - F_n) is
    alpha[i] + beta[i]*t from t0[i] to t0[i+1] (the last piece runs to +inf)
    and 0 below t0[0].

    A finite piece of length d with end values p, q integrates exactly to
    d * (p^2 m_0 + 2 p (q-p) m_1 + (q-p)^2 m_2), m_k = int_0^1 s^k e^{-a d s} ds;
    the bounded q - p stands in for beta*d, whose square overflows for an
    observation near 1e-300.
    """
    if not a > 0:
        raise ValueError("weight parameter a must be > 0")
    t0, alpha, beta = (np.asarray(v, dtype=float) for v in (t0, alpha, beta))
    p = alpha + beta * t0  # at the left end of each piece
    g = alpha[:-1] + beta[:-1] * t0[1:] - p[:-1]
    d = np.diff(t0)
    tiny = a * d < 1e-16  # m_k -> 1/(k+1); the ratios below would underflow
    c = np.where(tiny, 1.0, a * d)
    with np.errstate(over="ignore"):
        w = np.exp(-a * t0)
        m = [np.where(tiny, 1.0 / (k + 1), math.factorial(k) * sp.gammainc(k + 1, c) / c ** (k + 1))
             for k in range(3)]
    pieces = d * (p[:-1] ** 2 * m[0] + 2.0 * p[:-1] * g * m[1] + g * g * m[2])
    tail = p[-1] ** 2 / a + 2.0 * p[-1] * beta[-1] / a ** 2 + 2.0 * beta[-1] ** 2 / a ** 3
    return float((w[:-1] @ pieces + w[-1] * tail) / n)


def _L2_adaptive(deviation, x, a, lo):
    """Black-box adaptive quadrature of n * integral_lo^inf deviation(t)^2
    exp(-a t) dt, split at the observations above lo.  Slow; the tests'
    independent check of generic_L2."""
    x = np.sort(as_values(x))
    edges = [lo] + list(x[x > lo]) + [math.inf]
    total = 0.0
    for t_lo, t_hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda t: deviation(t) ** 2 * math.exp(-a * t),
                                t_lo, t_hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        total += val
    return x.size * total


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
    return float(_cvm(z, n))


def _cvm(z, n):
    j = np.arange(1, n + 1)
    return 1.0 / (12 * n) + np.sum((z - (2 * j - 1) / (2 * n)) ** 2)


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
    return float(_cvm(z, n) - n * (np.mean(z) - 0.5) ** 2)


EDF_TAGS = ("ks", "cvm", "ad", "watson")


def edf_rows(z, tags) -> dict:
    """The EDF statistics named in ``tags`` for every row of z, where row i
    holds a fitted CDF at the order statistics of sample i: {tag: (rows,)
    array}, KS unscaled.  Watson reuses the CvM of the same rows; AD clamps
    and warns as ``ad`` does."""
    z = np.asarray(z, dtype=float)
    n = z.shape[1]
    j = np.arange(1, n + 1)
    out = {}
    if "ks" in tags:
        out["ks"] = np.maximum(np.max(j / n - z, axis=1), np.max(z - (j - 1) / n, axis=1))
    if "cvm" in tags or "watson" in tags:
        out["cvm"] = 1.0 / (12 * n) + np.sum((z - (2 * j - 1) / (2 * n)) ** 2, axis=1)
    if "watson" in tags:
        out["watson"] = out["cvm"] - n * (np.mean(z, axis=1) - 0.5) ** 2
    if "ad" in tags:
        if np.any(z <= 0.0) or np.any(z >= 1.0):
            warnings.warn("fitted CDF values clamped away from {0,1} in the AD statistic",
                          RuntimeWarning, stacklevel=2)
        zc = np.clip(z, AD_CLAMP, 1.0 - AD_CLAMP)
        out["ad"] = -n - np.sum((2 * j - 1) * np.log(zc) + (2 * (n - j) + 1) * np.log1p(-zc),
                                axis=1) / n
    return out
