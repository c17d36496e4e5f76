"""Goodness-of-fit statistics.

The centerpiece is the weighted L2 distance between the empirical
characterization operator and the empirical CDF,

    B_{n,a} = n * integral_0^inf |T_n(t) - F_n(t)|^2 exp(-a t) dt,

specialized to the Burr Type XII family where it has a closed form, plus
one exact piecewise integrator for every weighted-L2 statistic, and the
four classical EDF statistics (Kolmogorov-Smirnov, Cramer-von Mises,
Anderson-Darling, Watson) computed from a fitted CDF.

B_{n,a}, the weighted-L2 integral and the EDF statistics each have one
implementation, a kernel over the rows of a matrix of samples (burr_B_rows,
generic_L2_rows with min_pieces_rows and real_line_pieces_rows, edf_rows);
burr_B_closed, generic_L2 with min_pieces and real_line_pieces, and
ks/cvm/ad/watson are its one-row case.  The Burr operator's coefficients
come from distributions.burr_coefficients, the catalog's one Burr score
formula, so B_{n,a} and the Burr L2 statistic score with the record.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import as_values, burr_coefficients


@dataclass(frozen=True)
class StatisticKind:
    name: str  # config / CLI name
    label: str  # report label; a weighted statistic's is followed by _a
    weighted: bool  # takes the exponential-weight parameter a
    family: str | None = None  # the one hypothesis family it applies to


# statistic tag -> every fact about the statistic but its formula
STATISTICS = {
    "burr_B": StatisticKind("B", "B", True, "burr"),
    "generic_L2": StatisticKind("L2", "L2", True),
    "ks": StatisticKind("ks", "KS", False),
    "cvm": StatisticKind("cvm", "CM", False),
    "ad": StatisticKind("ad", "AD", False),
    "watson": StatisticKind("watson", "WA", False),
}
STAT_NAMES = {kind.name: tag for tag, kind in STATISTICS.items()}  # config / CLI name -> tag

AD_CLAMP = 1e-15  # fitted CDF values are clamped to [AD_CLAMP, 1 - AD_CLAMP]


@dataclass(frozen=True)
class StatisticId:
    """Identifier for a test statistic.

    ``a`` is the exponential-weight tuning parameter (weighted statistics
    only).
    """

    tag: str
    a: float | None = None

    def __post_init__(self):
        if self.tag not in STATISTICS:
            raise ValueError(f"unknown statistic tag '{self.tag}'; known: {tuple(STATISTICS)}")
        if STATISTICS[self.tag].weighted:
            if not _weight_ok(self.a):
                raise ValueError(f"statistic '{self.tag}' needs a real weight parameter "
                                 f"a > 0 with a**3 positive and finite, got {self.a!r}")
        elif self.a is not None:
            raise ValueError(f"statistic '{self.tag}' takes no weight parameter")

    @property
    def label(self) -> str:
        kind = STATISTICS[self.tag]
        if not kind.weighted:
            return kind.label
        return f"{kind.label}_{int(self.a) if float(self.a).is_integer() else self.a}"


def _weight_ok(a) -> bool:
    # the statistics divide by a**3, and a float power that overflows raises
    if not isinstance(a, numbers.Real) or isinstance(a, bool) or not a > 0:
        return False
    try:
        return 0.0 < float(a) ** 3 < math.inf
    except OverflowError:
        return False


# --------------------------------------------------------------------------
# Burr Type XII characterization statistic
# --------------------------------------------------------------------------

def burr_B_closed(s, k_hat: float, c_hat: float, a: float) -> float:
    """Closed-form evaluation of the Burr statistic B_{n,a}: the one-row
    case of burr_B_rows.

    This is the double-sum formula over order statistics, evaluated through
    prefix sums (an algebraic regrouping of the pair sum, O(n) flops).  Its
    terms go through expm1 and the incomplete gamma P(2, aX) of
    _gammainc_123, whose series below the cut-off z = 0.5 keeps near-zero
    order statistics from losing precision to cancellation.  Agrees with
    burr_B_quadrature to better than 1e-8 relative; the quadrature route
    stays the authority.
    """
    x = np.sort(as_values(s))
    if not (a > 0 and k_hat > 0 and c_hat > 0):
        raise ValueError("burr_B_closed needs a, k_hat, c_hat > 0")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("observations must be positive and finite")
    return float(burr_B_rows(x[None], [k_hat], [c_hat], [a])[0, 0])


def burr_B_rows(X, k_hat, c_hat, a_values):
    """B_{n,a} of every row of X at that row's fit, for each a-value: a
    (rows, len(a_values)) array.

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
        z = a * X
        e = np.exp(-z)
        one_m_e = -np.expm1(-z)
        inner = (2.0 * A1 / a ** 3) * one_m_e + (A2 / a ** 2) * e \
            + ((c - 2.0) / a ** 2) * e - (X / a) * e
        off = (2.0 / n) * (_row_dot(A1, _prefix_sums(inner))
                           + _row_dot(A1 * e, csum_A2) / a ** 2
                           + _row_dot(e, csum_A2) / a)
        # (2/a^3) P(3, aX) + (X^2/a) e^{-aX}, as P(3, z) + z^2 e^{-z}/2 = P(2, z)
        diag_bracket = (2.0 / a ** 3) * _gammainc_123(z, e)[1]
        diag = (1.0 / n) * (_row_dot(A1 * A1, diag_bracket)
                            + (2.0 * c[:, 0] / a ** 2) * _row_dot(j0 * A1, e)
                            + (2.0 / a) * _row_dot(A2, e))
        single = (2.0 * c[:, 0] / (a * n)) * _row_dot(e, j0 + 1.0) - e.sum(axis=1) / (a * n)
        out[:, col] = off + diag + single
    return out


GAMMAINC_CUT = 0.5  # _gammainc_123 sums a series below this z, closed forms above
# 1/(3+i)! for i = 15 down to 0: the series P(3, z) = e^{-z} z^3 sum_i z^i/(3+i)!,
# whose 17th term is below 1e-17 of the sum for z < GAMMAINC_CUT
_P3_SERIES = [1.0 / math.factorial(3 + i) for i in range(15, -1, -1)]


def _gammainc_123(z, ez):
    """The regularized lower incomplete gammas P(1, z), P(2, z), P(3, z) of
    an array z >= 0, given ez = exp(-z).

    From GAMMAINC_CUT on, the closed forms P(k+1, z) = 1 - e^{-z} sum_{j<=k}
    z^j/j! (DLMF 8.4.11), built from the products z e^{-z} so that no
    intermediate overflows at large z.  Below it, P(3, z) is its series in
    16 Horner terms and the lower orders add the positive terms
    e^{-z} z^2/2 and e^{-z} z, so no order cancels.  Within 1e-14 relative
    of the exact values for z in [1e-100, 1e3], the worst just above the
    cut-off, where 1 - e^{-z}(1 + z + z^2/2) cancels to 0.0144.
    """
    zez = z * ez
    p1 = 1.0 - ez
    p2 = p1 - zez
    p3 = p2 - 0.5 * z * zez
    small = z < GAMMAINC_CUT
    if small.any():
        zs, zes = z[small], zez[small]
        series = np.full_like(zs, _P3_SERIES[0])  # np.polyval's Horner steps, in place
        for coef in _P3_SERIES[1:]:
            series *= zs
            series += coef
        p3s = zes * zs * zs * series
        p2s = p3s + 0.5 * zes * zs
        p3[small], p2[small], p1[small] = p3s, p2s, p2s + zes
    return p1, p2, p3


def _prefix_sums(v):
    """Row-wise sums of the entries before each one (0 for the first)."""
    out = np.zeros_like(v)
    np.cumsum(v[:, :-1], axis=1, out=out[:, 1:])
    return out


def _row_dot(u, v):
    """Dot product of each row of u with the same row of v (or with v itself
    when v is 1-d), made by the BLAS dot that ``@`` uses on one row, so a
    row's value does not depend on the rest of the batch."""
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
    min(x_j, t) on sorted positive x: the one-row case of min_pieces_rows."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all() or (x <= 0).any():
        raise ValueError("observations must be positive and finite")
    if (x[1:] < x[:-1]).any():
        raise ValueError("observations must be sorted")
    coef = np.asarray(coef, dtype=float)
    return tuple(v[0] for v in min_pieces_rows(x[None], coef[None]))


def min_pieces_rows(X, coef):
    """min_pieces of every row of X with the same row of coef, unchecked:
    (rows, n + 1) arrays whose pieces start at 0 and at each order statistic."""
    rows, n = X.shape
    zero = np.zeros((rows, 1))
    alpha = np.concatenate((zero, np.cumsum(coef * X, axis=1)), axis=1) - np.arange(n + 1)
    beta = np.concatenate((np.cumsum(coef[:, ::-1], axis=1)[:, ::-1], zero), axis=1)
    return np.concatenate((zero, X), axis=1), alpha, beta


def real_line_pieces(y, score):
    """generic_L2 pieces of the real-line operator n*T_n(t) = sum_{y_j <= t}
    score_j (t - y_j) on sorted y: the one-row case of real_line_pieces_rows.
    The standard normal's zero-bias operator is the case score = -y."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("observations must be finite")
    if (y[1:] < y[:-1]).any():
        raise ValueError("observations must be sorted")
    score = np.asarray(score, dtype=float)
    return tuple(v[0] for v in real_line_pieces_rows(y[None], score[None]))


def real_line_pieces_rows(Y, score):
    """real_line_pieces of every row of Y with the same row of score,
    unchecked: the pieces start at each order statistic, as the deviation
    vanishes below the smallest."""
    n = Y.shape[1]
    return Y, -np.cumsum(score * Y, axis=1) - np.arange(1, n + 1), np.cumsum(score, axis=1)


def generic_L2(t0, alpha, beta, a: float, n: int) -> float:
    """n * integral |T_n(t) - F_n(t)|^2 exp(-a t) dt, where n*(T_n - F_n) is
    alpha[i] + beta[i]*t from t0[i] to t0[i+1] (the last piece runs to +inf)
    and 0 below t0[0]: the one-row case of generic_L2_rows."""
    if not a > 0:
        raise ValueError("weight parameter a must be > 0")
    return float(generic_L2_rows(*(np.asarray(v, dtype=float)[None] for v in (t0, alpha, beta)),
                                 a, n)[0])


def generic_L2_rows(t0, alpha, beta, a: float, n: int) -> np.ndarray:
    """generic_L2 of every row of the (rows, pieces) arrays t0, alpha, beta:
    a (rows,) array.

    A finite piece of length d with end values p, q integrates exactly to
    d * (p^2 m_0 + 2 p (q-p) m_1 + (q-p)^2 m_2), m_k = int_0^1 s^k e^{-a d s} ds;
    the bounded q - p stands in for beta*d, whose square overflows for an
    observation near 1e-300.  m_k = k! P(k+1, c) / c^(k+1) at c = a d, with
    the P's from _gammainc_123 (closed forms from c = GAMMAINC_CUT on, a
    series below); m_k is 1/(k+1) on a piece with c below 1e-16, where the
    ratio is 1/(k+1) to double precision and a zero-length piece gives 0/0.
    The sum over a row's pieces is one dot product per row, so a row's value
    does not depend on the rest of the batch.
    """
    p = alpha + beta * t0  # at the left end of each piece
    g = alpha[:, :-1] + beta[:, :-1] * t0[:, 1:] - p[:, :-1]
    d = np.diff(t0, axis=1)
    tiny = a * d < 1e-16
    c = np.where(tiny, 1.0, a * d)
    p1, p2, p3 = _gammainc_123(c, np.exp(-c))
    with np.errstate(over="ignore"):
        w = np.exp(-a * t0)
        m = [np.where(tiny, 1.0 / (k + 1), ratio) for k, ratio in
             enumerate((p1 / c, p2 / (c * c), 2.0 * p3 / (c * c * c)))]
    pieces = d * (p[:, :-1] ** 2 * m[0] + 2.0 * p[:, :-1] * g * m[1] + g * g * m[2])
    tail = p[:, -1] ** 2 / a + 2.0 * p[:, -1] * beta[:, -1] / a ** 2 \
        + 2.0 * beta[:, -1] ** 2 / a ** 3
    return (_row_dot(w[:, :-1], pieces) + w[:, -1] * tail) / n


def _L2_adaptive(deviation, x, a, lo):
    """Black-box adaptive quadrature of n * integral_lo^inf deviation(t)^2
    exp(-a t) dt, split at the observations above lo.  Slow; the tests'
    independent check of generic_L2."""
    from scipy import integrate

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

def _edf_row(x, F, tag: str) -> float:
    """One EDF statistic of sample x for a fitted CDF F: the one-row case of
    edf_rows, with F evaluated once at the order statistics."""
    return float(edf_rows(np.asarray(F(np.sort(x)), dtype=float)[None], (tag,))[tag][0])


def ks(s, F) -> float:
    """Kolmogorov-Smirnov statistic max{D+, D-} for a fitted CDF F."""
    return _edf_row(as_values(s), F, "ks")


def cvm(s, F) -> float:
    """Cramer-von Mises statistic for a fitted CDF F."""
    return _edf_row(as_values(s), F, "cvm")


def ad(s, F) -> float:
    """Anderson-Darling statistic for a fitted CDF F, clamped as in edf_rows."""
    return _edf_row(as_values(s), F, "ad")


def watson(s, F) -> float:
    """Watson statistic for a fitted CDF F."""
    return _edf_row(as_values(s), F, "watson")


EDF_TAGS = ("ks", "cvm", "ad", "watson")


def edf_rows(z, tags) -> dict:
    """The EDF statistics named in ``tags`` for every row of z, where row i
    holds a fitted CDF at the order statistics of sample i: {tag: (rows,)
    array}, KS unscaled.

    KS is max{D+, D-}; CvM is 1/(12n) + sum (F(X_(j)) - (2j-1)/(2n))^2;
    Watson is CvM - n (mean(F(X_(j))) - 1/2)^2, from the CvM of the same
    rows.  For AD, fitted CDF values at extreme order statistics can round
    to 0 or 1; they are clamped to [AD_CLAMP, 1 - AD_CLAMP] before taking
    logs, with a warning when clamping actually occurs.
    """
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
