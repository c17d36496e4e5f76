"""Fixed-point characterization operators and regularity diagnostics.

A distribution with density p and score s = p'/p is the unique fixed point
of an operator that maps a law to (an expression built from) its own CDF:

* real line:            F(t) = E[ s(X) (t - X) 1{X <= t} ]
* support [L, inf):     F(t) = E[ -s(X) (min{X, t} - L) ]
* support (-inf, R]:    1 - F(t) = E[ s(X) (R - max{X, t}) ]
* bounded, right limit: F(t) = E[ -s(X) (min{X, t} - L) ] + (t - L) lim_{x->R} p(x)
* bounded, left limit:  1 - F(t) = E[ s(X) (R - max{X, t}) ] + (R - t) lim_{x->L} p(x)

Each operator variant is one record of the table ``_IDENTITIES``, which
every function here reads; L, R and the endpoint density limit are those of
the law the operator is built from.  This module evaluates the operators
exactly (adaptive quadrature against an arbitrary data law), empirically
(sample averages), and provides numeric evidence for the regularity
conditions the identities require.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DistributionSpec,
    DomainError,
    as_values,
    boundary_density_limit,
    cdf,
    pdf,
    quantile,
    score,
    sf,
)

# One record per characterization identity.  form: "line" and "min" give
# F(t), "max" gives 1 - F(t); needs: the support ends it uses, which must be
# finite; limit_at: the endpoint whose density limit it adds.  The density
# must vanish at the far end (left for line and max, right for min) unless
# the identity adds its limit there: limit_at is always that end.
_Identity = namedtuple("_Identity", "form needs limit_at")
_IDENTITIES = {
    "real_line": _Identity("line", (), None),
    "positive_axis_min": _Identity("min", ("left",), None),  # L = 0
    "lower_bounded_min": _Identity("min", ("left",), None),
    "upper_bounded_max": _Identity("max", ("right",), None),
    "bounded_right_limit": _Identity("min", ("left", "right"), "right"),
    "bounded_left_limit": _Identity("max", ("left", "right"), "left"),
}
VARIANTS = tuple(_IDENTITIES)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, value=math.nan, error_estimate=math.nan):
        super().__init__(f"{message} (value={value!r}, error_estimate={error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class OperatorKind:
    """Which characterization identity applies.  Its boundaries and endpoint
    density limit are facts of the law it is applied to."""

    variant: str

    def __post_init__(self):
        if self.variant not in _IDENTITIES:
            raise ValueError(f"unknown operator variant '{self.variant}'")


def default_operator(dist: DistributionSpec) -> OperatorKind:
    """Pick the operator variant matching the support shape of ``dist``;
    bounded supports use the right-limit identity."""
    sup = dist.support
    if not sup.bounded_below:
        return OperatorKind("upper_bounded_max" if sup.bounded_above else "real_line")
    if not sup.bounded_above:
        return OperatorKind("positive_axis_min" if sup.left == 0.0 else "lower_bounded_min")
    return OperatorKind("bounded_right_limit")


# --------------------------------------------------------------------------
# Quadrature plumbing
# --------------------------------------------------------------------------

def _quad(f, a, b, breakpoints=(), quad_tol=1e-9):
    """Adaptive quadrature over (a, b) split at interior breakpoints.

    Splitting isolates the kinks (min/max at t, score knots) so each piece is
    smooth; infinite endpoints are handled by the QUADPACK transformations.
    """
    import warnings as _warnings

    from scipy import integrate

    pts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a] + pts + [b]
    total = 0.0
    err = 0.0
    with _warnings.catch_warnings():
        # the summed error estimate below is the authority, not the warning
        _warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, abserr = integrate.quad(f, lo, hi, epsabs=quad_tol / max(1, len(edges) - 1),
                                         epsrel=1e-11, limit=200)
            total += val
            err += abserr
    if err > max(quad_tol, 1e-13 * abs(total)) * 50:
        raise QuadratureError("quadrature did not converge", total, err)
    return total


# --------------------------------------------------------------------------
# Exact operators (expectations under an arbitrary data law)
# --------------------------------------------------------------------------

def exact_T(dist: DistributionSpec, kind: OperatorKind | None, t: float,
            quad_tol: float = 1e-9, under: DistributionSpec | None = None) -> float:
    """Value of the characterization operator of ``dist`` at t.

    The expectation defaults to dist's own law, in which case the result
    equals cdf(dist, t) up to quadrature error (the fixed-point property).
    Passing ``under`` evaluates the same operator with the expectation taken
    under a different data law; away from the fixed point the result differs
    from that law's CDF.  The returned value is always on the CDF scale.
    """
    form, rho, law, weighted = _operator_setup(dist, kind, under, t=t)
    L, R = dist.support.left, dist.support.right
    a, b = law.support.left, law.support.right
    brk = [t, *dist.support.knots, *law.support.knots]

    if form == "line":
        return _quad(lambda x: weighted(x, t - x), a, min(t, b), brk, quad_tol)
    if form == "min":
        return _quad(lambda x: weighted(x, -(min(x, t) - L)), a, b, brk, quad_tol) + (t - L) * rho
    # max-type variants characterize 1 - F(t); convert to the CDF scale
    return 1.0 - (_quad(lambda x: weighted(x, R - max(x, t)), a, b, brk, quad_tol) + (R - t) * rho)


def _operator_setup(dist, kind, under, **points):
    """The identity's form, the endpoint density limit it adds (0 when it
    adds none), the data law and the weighted score.  DomainError for a point
    outside dist's open support, a data law whose support is not inside
    dist's, an operator the law cannot carry (see _resolve), or an endpoint
    density limit that is not finite."""
    _check_interior(dist, **points)
    law = under if under is not None else dist
    _check_contained(dist, law)
    identity = _IDENTITIES[_resolve(dist, kind).variant]
    side = identity.limit_at
    rho = boundary_density_limit(dist, side) if side else 0.0
    if not math.isfinite(rho):
        raise DomainError(f"{dist.label}: density has no finite limit at the {side} endpoint; "
                          "the bounded-support characterization does not apply")
    return identity.form, rho, law, _weighted_score(dist, law)


def _resolve(dist, kind):
    """kind, or dist's default operator when None; DomainError naming both
    when the law lacks a finite end the identity uses, or when the
    positive-axis identity meets a left end that is not 0."""
    kind = kind or default_operator(dist)
    sup = dist.support
    for side in _IDENTITIES[kind.variant].needs:
        if not math.isfinite(getattr(sup, side)):
            raise DomainError(f"{kind.variant} operator needs a finite {side} end, "
                              f"which {dist.label} lacks")
    if kind.variant == "positive_axis_min" and sup.left != 0.0:
        raise DomainError(f"{kind.variant} operator needs the left end 0, "
                          f"not the left end {sup.left} of {dist.label}")
    return kind


def _check_contained(dist, law):
    """DomainError when law's support is not contained in dist's support."""
    if law.support.left < dist.support.left or law.support.right > dist.support.right:
        raise DomainError(f"the support of {law.label} is not contained in "
                          f"the support of {dist.label}")


def _weighted_score(dist, law):
    """score(dist, x) * factor * pdf(law, x), short-circuiting where the
    density already underflowed (the score may overflow out there)."""
    def weighted(x, factor):
        w = pdf(law, x)
        if w == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return score(dist, x) * factor * w
    return weighted


def density_identity(dist: DistributionSpec, t: float, kind: OperatorKind | None = None,
                     quad_tol: float = 1e-9, under: DistributionSpec | None = None) -> float:
    """Density-level companion of exact_T: the identity value for p(t).

    Under dist's own law this equals pdf(dist, t) within quadrature error.
    """
    form, rho, law, weighted = _operator_setup(dist, kind, under, t=t)
    a, b = law.support.left, law.support.right
    brk = [*dist.support.knots, *law.support.knots]

    if form == "min":
        return _quad(lambda x: weighted(x, -1.0), max(t, a), b, brk, quad_tol) + rho
    return _quad(lambda x: weighted(x, 1.0), a, min(t, b), brk, quad_tol) + rho


def fixed_point_residual(dist: DistributionSpec, kind: OperatorKind | None = None,
                         grid=None, quad_tol: float = 1e-9,
                         under: DistributionSpec | None = None) -> float:
    """max_t |exact_T(t) - F(t)| over a grid, F being the data law's CDF.

    Zero (up to quadrature error) exactly when the data law is dist itself.
    """
    _, _, law, _ = _operator_setup(dist, kind, under)
    if grid is None:
        grid = quantile(law, np.linspace(0.01, 0.99, 50))
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if not np.all(law.support.interior(grid)):
        raise DomainError("grid points must lie inside the data law's support")
    worst = 0.0
    for t in grid:
        worst = max(worst, abs(exact_T(dist, kind, float(t), quad_tol, under=under)
                               - cdf(law, float(t))))
    return worst


# --------------------------------------------------------------------------
# Empirical operators
# --------------------------------------------------------------------------

def empirical_T_min(s, score_fn, t: float, L: float = 0.0) -> float:
    """Sample version of the min-type operator: -mean(score(Y)*(min{Y,t}-L)).

    Piecewise linear and continuous in t, with breakpoints at the order
    statistics; constant for t beyond the sample maximum.
    """
    vals = as_values(s)
    if np.any(vals <= L):
        raise DomainError(f"all observations must exceed the boundary L={L}")
    if not t > L:
        raise DomainError(f"t must exceed the boundary L={L}")
    sc = np.asarray(score_fn(vals), dtype=float)
    return float(-np.mean(sc * (np.minimum(vals, t) - L)))


def empirical_T_zero_bias(s, t: float, sigma2: float = 1.0) -> float:
    """Sample version of the real-line operator for the centered normal:
    (1/(n*sigma2)) * sum Y_j (Y_j - t) 1{Y_j <= t}."""
    vals = as_values(s)
    ind = vals <= t
    return float(np.sum(vals[ind] * (vals[ind] - t)) / (vals.size * sigma2))


# --------------------------------------------------------------------------
# Test functions and the density-approach identity
# --------------------------------------------------------------------------

def test_function_ftp(dist: DistributionSpec, t: float, x: float) -> float:
    """The canonical test function built from dist's CDF P and density p:

        x < t:  P(x) (1 - P(t)) / p(x)
        x > t:  (1 - P(x)) P(t) / p(x)

    Continuous everywhere (including at t), differentiable except at t,
    and vanishing at both support endpoints.  Deep in a tail, where P (or
    1-P) and p both underflow, the ratio is continued by its L'Hopital
    limit -1/score(x) (the Mills-type asymptote), so the function stays
    finite and accurate instead of collapsing to 0/0.
    """
    _check_interior(dist, t=t, x=x)
    px = pdf(dist, x)
    if x <= t:
        num = cdf(dist, x)
        if num > _TINY and px > _TINY:
            return num * sf(dist, t) / px
        return sf(dist, t) * _tail_ratio(dist, x, lower=True)
    num = sf(dist, x)
    if num > _TINY and px > _TINY:
        return num * cdf(dist, t) / px
    return cdf(dist, t) * _tail_ratio(dist, x, lower=False)


def _check_interior(dist, **points):
    """DomainError naming the first point outside dist's open support."""
    for name, v in points.items():
        if not dist.support.left < v < dist.support.right:
            raise DomainError(f"{name} outside the open support")


# direct CDF/density ratios lose relative precision once the operands reach
# the subnormal range; hand over to the asymptote well before that
_TINY = 1e-290


def _tail_ratio(dist, x, lower):
    """First-order asymptote of P(x)/p(x) (lower tail) or (1-P(x))/p(x)
    (upper tail) where CDF and density both underflow:

        P/p  = (1 + u)/s + O(u^2),   (1-P)/p = -(1 + u)/s + O(u^2),

    with s the score and u = s'/s^2 (the ratios solve R' = 1 - R s and
    Q' = -1 - Q s respectively)."""
    s = score(dist, x)
    if (lower and s <= 0.0) or (not lower and s >= 0.0):
        return 0.0
    h = _inside_step(dist.support, x, 1e-6 * max(1.0, abs(x)))
    s_prime = (score(dist, x + h) - score(dist, x - h)) / (2 * h)
    u = s_prime / (s * s)
    val = (1.0 + u) / s
    return val if lower else -val


def _inside_step(sup, x, h):
    """h, shrunk so that the stencil x +- h stays inside sup's finite ends."""
    for end in (sup.left, sup.right):
        if math.isfinite(end):
            h = min(h, 0.49 * abs(x - end))
    return h


def _ftp_derivative_fd(dist, t, x):
    """Central finite difference of the test function, step shrunk so the
    stencil never crosses t, a knot, or a support endpoint."""
    sup = dist.support
    h = _inside_step(sup, x, min(1e-5 * max(1.0, abs(x)), 0.49 * abs(x - t)))
    for y in sup.knots:
        if x != y:
            h = min(h, 0.49 * abs(x - y))
    if h <= 0.0:
        return 0.0
    return (test_function_ftp(dist, t, x + h) - test_function_ftp(dist, t, x - h)) / (2 * h)


def stein_expectation(dist: DistributionSpec, candidate: DistributionSpec, t: float,
                      quad_tol: float = 1e-9) -> float:
    """E_candidate[ f' (X) + score_dist(X) f(X) ] for the canonical test function.

    The derivative is taken by finite differences of the implemented test
    function, so the computation is an end-to-end numeric check: the result
    must equal cdf(candidate, t) - cdf(dist, t).
    """
    _check_contained(dist, candidate)
    _check_interior(dist, t=t)

    def integrand(x):
        w = pdf(candidate, x)
        if w == 0.0:
            return 0.0
        f = test_function_ftp(dist, t, x)
        fprime = _ftp_derivative_fd(dist, t, x)
        return (fprime + score(dist, x) * f) * w

    a, b = candidate.support.left, candidate.support.right
    return _quad(integrand, a, b, [t, *dist.support.knots, *candidate.support.knots], quad_tol)


# --------------------------------------------------------------------------
# Regularity-condition diagnostics
# --------------------------------------------------------------------------

KAPPA_THRESHOLD = 1e6       # C2 verdict: grid supremum must stay below this
C3_DIVERGENCE_CAP = 1e6     # running integral beyond this flags divergence
LIMIT_ZERO_TOL = 1e-6       # |extrapolated limit| below this counts as zero


@dataclass
class ConditionReport:
    """Numeric evidence for the regularity conditions of one distribution."""

    family: str
    params: dict = field(default_factory=dict)
    variant: str = ""
    c2_sup_kappa: float = math.nan
    c3_integral: float = math.nan
    c3_form: str = "full"
    c4_limit: float | None = None
    c5_limit: float | None = None
    boundary_limit: float | None = None
    verdicts: dict = field(default_factory=dict)
    supported: bool = False
    grid: str = ""

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
            return v
        return {key: clean(v) for key, v in vars(self).items()}


def _ratio_cdf_over_pdf(dist, x, side):
    num = cdf(dist, x) if side == "left" else sf(dist, x)
    den = pdf(dist, x)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _endpoint_sequence(dist, endpoint, side, fn):
    """Evaluate fn at geometric distances 1e-1..1e-8 from a finite endpoint."""
    span = dist.support.right - dist.support.left
    s0 = 1.0 if not math.isfinite(span) else min(1.0, 0.4 * span)
    vals = []
    for m in range(1, 9):
        d = s0 * 10.0 ** (-m)
        x = endpoint + d if side == "left" else endpoint - d
        try:
            vals.append(float(fn(x)))
        except (DomainError, OverflowError):
            vals.append(math.nan)
    return vals


def _extrapolate_limit(vals):
    """(limit, stabilized) from a sequence taken at shrinking distances.

    Accepts the limit when the last three values agree to 1e-3 relative, or
    when they decay geometrically toward zero.
    """
    tail = vals[-3:]
    if any(not math.isfinite(v) for v in tail):
        return math.inf, False
    amax = max(abs(v) for v in tail)
    if amax < 1e-9:
        return 0.0, True
    spread = max(tail) - min(tail)
    if spread <= 1e-3 * amax:
        return tail[-1], True
    a6, a7, a8 = (abs(v) for v in tail)
    if a8 <= a7 <= a6 and a8 <= 0.3 * a6 and a8 < 1e-3:
        return 0.0, True
    return tail[-1], False


def check_conditions(dist: DistributionSpec, grid_size: int = 400,
                     kind: OperatorKind | None = None) -> ConditionReport:
    """Numeric diagnostics for the regularity conditions the operator needs.

    Reports the grid supremum of kappa(x) = |score(x)| min{P, 1-P} / p(x),
    the score-weighted integral with endpoint divergence detection, the
    CDF/density ratio limits at the ends the identity uses, and the density
    limit at its far end.  ``supported`` is true when no verdict fails;
    inconclusive numerics count as failures.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be >= 100")
    kind = _resolve(dist, kind)
    sup = dist.support
    identity = _IDENTITIES[kind.variant]
    rep = ConditionReport(family=dist.family, params=dist.param_dict, variant=kind.variant)
    rep.grid = (f"{grid_size} quantile-mapped log-spaced interior points; "
                "endpoint sequences at geometric distances 1e-1..1e-8")

    # --- C2: supremum of kappa on a log-spaced interior grid
    half = grid_size // 2
    logp = np.logspace(-10, math.log10(0.5), half)
    probs = np.unique(np.concatenate([logp, 1.0 - logp]))
    xs = quantile(dist, probs)
    mask = np.ones(xs.shape, dtype=bool)
    for y in sup.knots:
        mask &= np.abs(xs - y) > 1e-9 * max(1.0, abs(y))
    xs = xs[mask & dist.support.interior(xs)]
    with np.errstate(divide="ignore", invalid="ignore"):
        p_xs = pdf(dist, xs)
        kappa = np.abs(score(dist, xs)) * np.minimum(cdf(dist, xs), sf(dist, xs)) / p_xs
    kappa = kappa[p_xs > 0]
    finite = np.all(np.isfinite(kappa)) and kappa.size > 0
    rep.c2_sup_kappa = float(np.max(kappa)) if kappa.size else math.nan
    rep.verdicts["c2"] = "pass" if finite and rep.c2_sup_kappa < KAPPA_THRESHOLD else "fail"

    # --- C3: weighted score integral with endpoint window diagnostics
    weakened = (kind.variant == "positive_axis_min" and not sup.knots)
    rep.c3_form = "weakened_positive_axis" if weakened else "full"

    def c3_integrand(x):
        px = pdf(dist, x)
        if px == 0.0:
            return 0.0
        weight = abs(x) if weakened else (1.0 + abs(x))
        with np.errstate(over="ignore"):
            return weight * abs(score(dist, x)) * px

    rep.c3_integral, c3_ok = _c3_integral(dist, c3_integrand)
    rep.verdicts["c3"] = "pass" if c3_ok else "fail"

    # --- C4 / C5: the CDF(density) ratio must vanish at each end the
    # identity uses; boundary: the density must vanish at the identity's far
    # end, or have a limit there where the identity adds it (a stabilized
    # limit is always finite)
    far = "right" if identity.form == "min" else "left"
    for cond, side, fn, ceiling in (
            ("c4", "left", lambda x: _ratio_cdf_over_pdf(dist, x, "left"), LIMIT_ZERO_TOL),
            ("c5", "right", lambda x: _ratio_cdf_over_pdf(dist, x, "right"), LIMIT_ZERO_TOL),
            ("boundary", far, lambda x: pdf(dist, x),
             math.inf if identity.limit_at else LIMIT_ZERO_TOL)):
        endpoint = getattr(sup, side)
        if not (cond == "boundary" or side in identity.needs) or not math.isfinite(endpoint):
            rep.verdicts[cond] = "not_applicable"
            continue
        limit, stable = _extrapolate_limit(_endpoint_sequence(dist, endpoint, side, fn))
        setattr(rep, f"{cond}_limit", limit)
        rep.verdicts[cond] = "pass" if stable and abs(limit) <= ceiling else "fail"

    rep.supported = "fail" not in rep.verdicts.values()
    return rep


def _c3_integral(dist, integrand):
    """Piecewise integral of the C3 integrand with divergence detection.

    Integrates window-by-window toward each support endpoint (geometric
    distances at finite endpoints, geometric tail quantiles at infinite
    ones).  Finite endpoints are never touched: the innermost window stops
    at distance 1e-8, so a divergent singularity shows up as windows that
    stop shrinking (or as quadrature breakdown), not as garbage from an
    improper integral.  Divergence is flagged when the running total passes
    the cap, any window comes back negative or non-finite, or the three
    innermost windows at an endpoint are non-decreasing toward it.
    """
    sup = dist.support
    span = sup.right - sup.left
    s0 = 1.0 if not math.isfinite(span) else min(1.0, 0.4 * span)

    if sup.bounded_below:
        left_edges = [sup.left + s0 * 10.0 ** (-m) for m in range(8, -1, -1)]
    else:
        left_edges = [quantile(dist, 10.0 ** (-m)) for m in range(8, 0, -1)]
    if sup.bounded_above:
        right_edges = [sup.right - s0 * 10.0 ** (-m) for m in range(0, 9)]
    else:
        right_edges = [quantile(dist, 1.0 - 10.0 ** (-m)) for m in range(1, 9)]

    edges = sorted(set(left_edges) | set(sup.knots) | set(right_edges))
    edges = [e for e in edges if sup.left < e < sup.right]
    if len(edges) < 2:
        return math.inf, False

    from scipy import integrate

    def piece(lo, hi):
        try:
            with np.errstate(all="ignore"):
                val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-9,
                                        limit=200)
        except (ArithmeticError, ValueError):
            return math.nan
        return val

    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", integrate.IntegrationWarning)
        pieces = [piece(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        tails = []
        if not sup.bounded_below:
            tails.append(piece(-math.inf, edges[0]))
        if not sup.bounded_above:
            tails.append(piece(edges[-1], math.inf))

    total = 0.0
    for val in pieces + tails:
        if not math.isfinite(val) or val < -1e-12:
            return math.inf, False
        total += val
        if total > C3_DIVERGENCE_CAP:
            return math.inf, False

    def diverging(windows_toward_endpoint):
        w = windows_toward_endpoint
        return len(w) >= 3 and w[-1] > 1e-9 and w[-1] >= w[-2] >= w[-3]

    n_left = len(left_edges) - 1   # windows between consecutive left edges
    if diverging(pieces[:n_left][::-1]):
        return math.inf, False
    n_right = len(right_edges) - 1
    if n_right and diverging(pieces[len(pieces) - n_right:]):
        return math.inf, False
    return total, True
