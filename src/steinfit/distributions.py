"""Catalog of continuous univariate distributions.

Every family exposes the same contract: density, log-density, distribution
function, survival function, quantile, score (derivative of the log-density)
and an inversion-based sampler driven by a reproducible counter-based RNG
stream.  The catalog covers both the hypothesis families used by the
goodness-of-fit tests and the alternatives used in the power studies.

Parametrizations
----------------
normal(mu, sigma2)                 density on R, sigma2 is the variance
laplace(mu, sigma)                 density on R, non-differentiable at mu
gamma(k, lam)                      shape k, *scale* lam, on (0, inf)
exponential(lam)                   *rate* lam, on (0, inf)
inverse_gaussian(mu, lam)          on (0, inf)
weibull(k, lam)                    shape k, scale lam, on (0, inf)
burr_xii(k, c, sigma=1)            Burr Type XII / Singh-Maddala, on (0, inf)
levy(mu, sigma)                    on (mu, inf)
lognormal(mu, sigma)               sigma is the log-scale std dev
beta(alpha, beta)                  on (0, 1)
uniform(left, right)
half_normal()                      |N(0,1)|
half_cauchy()                      |Cauchy(0,1)|
gompertz(theta)                    CDF 1 - exp((1 - e^x)/theta)
linear_failure_rate(theta)         density (1 + theta*x) exp(-x - theta*x^2/2)
inverse_weibull(theta)             CDF exp(-x^-theta)
shifted_gamma(k, lam, mu)          gamma translated to (mu, inf)
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp


class ParameterError(ValueError):
    """Invalid distribution parameters (raised at construction time)."""


class DomainError(ValueError):
    """Evaluation point outside the valid domain of an operation."""


# --------------------------------------------------------------------------
# Core value types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Support:
    """Support interval [left, right] with interior non-differentiability knots."""

    left: float
    right: float
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.left < self.right:
            raise ParameterError(f"support requires left < right, got [{self.left}, {self.right}]")
        prev = self.left
        for y in self.knots:
            if not (prev < y < self.right):
                raise ParameterError(f"knot {y} not strictly increasing inside ({self.left}, {self.right})")
            prev = y

    def interior(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x > self.left) & (x < self.right)

    @property
    def bounded_below(self) -> bool:
        return math.isfinite(self.left)

    @property
    def bounded_above(self) -> bool:
        return math.isfinite(self.right)


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable catalog entry: family tag, named parameters, support."""

    family: str
    params: tuple[tuple[str, float], ...]
    support: Support

    def param(self, name: str) -> float:
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    @property
    def param_dict(self) -> dict[str, float]:
        return dict(self.params)

    @property
    def label(self) -> str:
        vals = ",".join(_fmt_num(v) for _, v in self.params)
        return f"{self.family}({vals})"


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


@dataclass(frozen=True)
class Sample:
    """A finite batch of observations with a sorted view, made on first use."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size < 1:
            raise ValueError("sample must contain at least one observation")
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values)

    @property
    def n(self) -> int:
        return self.values.size


def as_values(s) -> np.ndarray:
    """Accept a Sample or any array-like and return a 1-d float array."""
    if isinstance(s, Sample):
        return s.values
    return np.asarray(s, dtype=float).ravel()


# --------------------------------------------------------------------------
# Reproducible RNG streams
# --------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def derive_stream_id(base: int, *keys) -> int:
    """Hash (base stream id, keys...) into a fresh 64-bit stream id.

    Uses SHA-256 so the derivation is stable across processes and platforms
    (Python's built-in ``hash`` is salted and must not be used here).
    """
    h = hashlib.sha256(str(int(base)).encode())
    for k in keys:
        h.update(b"\x1f")
        h.update(str(k).encode())
    return int.from_bytes(h.digest()[:8], "little")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs produce identical variate sequences;
    distinct stream ids give statistically independent streams, so parallel
    consumers can each own a child stream without any shared state.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *keys) -> "RngStream":
        return RngStream(self.seed, derive_stream_id(self.stream_id, *keys))

    def fingerprint(self) -> str:
        return f"philox:{self.seed}:{self.stream_id}"


# --------------------------------------------------------------------------
# Family implementations
# --------------------------------------------------------------------------
# Each entry maps the family tag to a record of vectorized callables taking
# (params dict, ndarray).  ``quantile`` may be None, in which case a bracketed
# root-find on the CDF is used.

_INF = math.inf


def _positive(p, *names):
    for name in names:
        if not p[name] > 0:
            raise ParameterError(f"parameter '{name}' must be > 0, got {p[name]}")


class _Family:
    def __init__(self, names, defaults, validate, support, logpdf, pdf, cdf, sf,
                 quantile, score):
        self.names = names
        self.defaults = defaults
        self.validate = validate
        self.support = support
        self.logpdf = logpdf
        self.pdf = pdf
        self.cdf = cdf
        self.sf = sf
        self.quantile = quantile
        self.score = score


_REGISTRY: dict[str, _Family] = {}


def _register(tag, names, support, logpdf, pdf, cdf, sf, quantile, score,
              validate=None, defaults=None):
    _REGISTRY[tag] = _Family(names, defaults or {}, validate or (lambda p: None),
                             support, logpdf, pdf, cdf, sf, quantile, score)


_SQRT2PI = math.sqrt(2 * math.pi)

_register(
    "normal", ("mu", "sigma2"),
    support=lambda p: Support(-_INF, _INF),
    validate=lambda p: _positive(p, "sigma2"),
    logpdf=lambda p, x: -0.5 * (x - p["mu"]) ** 2 / p["sigma2"] - 0.5 * math.log(2 * math.pi * p["sigma2"]),
    pdf=lambda p, x: np.exp(-0.5 * (x - p["mu"]) ** 2 / p["sigma2"]) / (_SQRT2PI * math.sqrt(p["sigma2"])),
    cdf=lambda p, x: sp.ndtr((x - p["mu"]) / np.sqrt(p["sigma2"])),
    sf=lambda p, x: sp.ndtr(-(x - p["mu"]) / np.sqrt(p["sigma2"])),
    quantile=lambda p, u: p["mu"] + math.sqrt(p["sigma2"]) * sp.ndtri(u),
    score=lambda p, x: -(x - p["mu"]) / p["sigma2"],
)

_register(
    "laplace", ("mu", "sigma"),
    support=lambda p: Support(-_INF, _INF, (p["mu"],)),
    validate=lambda p: _positive(p, "sigma"),
    logpdf=lambda p, x: -np.abs(x - p["mu"]) / p["sigma"] - math.log(2 * p["sigma"]),
    pdf=lambda p, x: np.exp(-np.abs(x - p["mu"]) / p["sigma"]) / (2 * p["sigma"]),
    cdf=lambda p, x: np.where(x < p["mu"],
                              0.5 * np.exp(-np.abs(x - p["mu"]) / p["sigma"]),
                              1.0 - 0.5 * np.exp(-np.abs(x - p["mu"]) / p["sigma"])),
    sf=lambda p, x: np.where(x < p["mu"],
                             1.0 - 0.5 * np.exp(-np.abs(x - p["mu"]) / p["sigma"]),
                             0.5 * np.exp(-np.abs(x - p["mu"]) / p["sigma"])),
    quantile=lambda p, u: np.where(u < 0.5,
                                   p["mu"] + p["sigma"] * np.log(2 * u),
                                   p["mu"] - p["sigma"] * np.log1p(-2 * (u - 0.5))),
    score=lambda p, x: np.sign(p["mu"] - x) / p["sigma"],
)

_register(
    "gamma", ("k", "lam"),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "k", "lam"),
    logpdf=lambda p, x: ((p["k"] - 1) * np.log(x) - x / p["lam"]
                         - p["k"] * math.log(p["lam"]) - math.lgamma(p["k"])),
    pdf=lambda p, x: np.exp((p["k"] - 1) * np.log(x) - x / p["lam"]
                            - p["k"] * math.log(p["lam"]) - math.lgamma(p["k"])),
    cdf=lambda p, x: sp.gammainc(p["k"], x / p["lam"]),
    sf=lambda p, x: sp.gammaincc(p["k"], x / p["lam"]),
    quantile=lambda p, u: p["lam"] * sp.gammaincinv(p["k"], u),
    score=lambda p, x: (p["k"] - 1) / x - 1.0 / p["lam"],
)

_register(
    "exponential", ("lam",),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "lam"),
    logpdf=lambda p, x: math.log(p["lam"]) - p["lam"] * x,
    pdf=lambda p, x: p["lam"] * np.exp(-p["lam"] * x),
    cdf=lambda p, x: -np.expm1(-p["lam"] * x),
    sf=lambda p, x: np.exp(-p["lam"] * x),
    quantile=lambda p, u: -np.log1p(-u) / p["lam"],
    score=lambda p, x: -p["lam"] * np.ones_like(np.asarray(x, dtype=float)),
)


def _ig_cdf(p, x):
    mu, lam = p["mu"], p["lam"]
    r = np.sqrt(lam / x)
    # second term written as exp(2*lam/mu + log Phi(-r(x/mu+1))) to avoid overflow
    return sp.ndtr(r * (x / mu - 1)) + np.exp(2 * lam / mu + sp.log_ndtr(-r * (x / mu + 1)))


def _ig_sf(p, x):
    mu, lam = p["mu"], p["lam"]
    r = np.sqrt(lam / x)
    return sp.ndtr(-r * (x / mu - 1)) - np.exp(2 * lam / mu + sp.log_ndtr(-r * (x / mu + 1)))


_register(
    "inverse_gaussian", ("mu", "lam"),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "mu", "lam"),
    logpdf=lambda p, x: (0.5 * math.log(p["lam"] / (2 * math.pi)) - 1.5 * np.log(x)
                         - p["lam"] * (x - p["mu"]) ** 2 / (2 * p["mu"] ** 2 * x)),
    pdf=lambda p, x: (math.sqrt(p["lam"] / (2 * math.pi)) * x ** -1.5
                      * np.exp(-p["lam"] * (x - p["mu"]) ** 2 / (2 * p["mu"] ** 2 * x))),
    cdf=_ig_cdf,
    sf=_ig_sf,
    quantile=None,
    score=lambda p, x: p["lam"] / (2 * x ** 2) - 1.5 / x - p["lam"] / (2 * p["mu"] ** 2),
)

_register(
    "weibull", ("k", "lam"),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "k", "lam"),
    logpdf=lambda p, x: (math.log(p["k"] / p["lam"]) + (p["k"] - 1) * np.log(x / p["lam"])
                         - (x / p["lam"]) ** p["k"]),
    pdf=lambda p, x: (p["k"] / p["lam"]) * (x / p["lam"]) ** (p["k"] - 1)
                     * np.exp(-(x / p["lam"]) ** p["k"]),
    cdf=lambda p, x: -np.expm1(-(x / p["lam"]) ** p["k"]),
    sf=lambda p, x: np.exp(-(x / p["lam"]) ** p["k"]),
    quantile=lambda p, u: p["lam"] * (-np.log1p(-u)) ** (1.0 / p["k"]),
    score=lambda p, x: (p["k"] - 1) / x - p["k"] * x ** (p["k"] - 1) / p["lam"] ** p["k"],
)


def _burr_score(p, x):
    k, c, sigma = p["k"], p["c"], p["sigma"]
    # x^(c-1)/(sigma^c + x^c) written through the logistic sigmoid for stability
    ratio = sp.expit(c * np.log(np.asarray(x, dtype=float) / sigma))  # y^c/(1+y^c)
    return (c - 1) / x - c * (k + 1) * ratio / x


_register(
    "burr_xii", ("k", "c", "sigma"),
    defaults={"sigma": 1.0},
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "k", "c", "sigma"),
    logpdf=lambda p, x: (math.log(p["c"] * p["k"] / p["sigma"])
                         + (p["c"] - 1) * np.log(x / p["sigma"])
                         - (p["k"] + 1) * np.logaddexp(0.0, p["c"] * np.log(x / p["sigma"]))),
    pdf=lambda p, x: np.exp(math.log(p["c"] * p["k"] / p["sigma"])
                            + (p["c"] - 1) * np.log(x / p["sigma"])
                            - (p["k"] + 1) * np.logaddexp(0.0, p["c"] * np.log(x / p["sigma"]))),
    cdf=lambda p, x: -np.expm1(-p["k"] * np.logaddexp(0.0, p["c"] * np.log(x / p["sigma"]))),
    sf=lambda p, x: np.exp(-p["k"] * np.logaddexp(0.0, p["c"] * np.log(x / p["sigma"]))),
    quantile=lambda p, u: p["sigma"] * np.expm1(-np.log1p(-u) / p["k"]) ** (1.0 / p["c"]),
    score=_burr_score,
)

_register(
    "levy", ("mu", "sigma"),
    support=lambda p: Support(p["mu"], _INF),
    validate=lambda p: _positive(p, "sigma"),
    logpdf=lambda p, x: (0.5 * math.log(p["sigma"] / (2 * math.pi))
                         - 1.5 * np.log(x - p["mu"]) - p["sigma"] / (2 * (x - p["mu"]))),
    pdf=lambda p, x: (math.sqrt(p["sigma"] / (2 * math.pi)) * (x - p["mu"]) ** -1.5
                      * np.exp(-p["sigma"] / (2 * (x - p["mu"])))),
    cdf=lambda p, x: sp.erfc(np.sqrt(p["sigma"] / (2 * (x - p["mu"])))),
    sf=lambda p, x: sp.erf(np.sqrt(p["sigma"] / (2 * (x - p["mu"])))),
    quantile=lambda p, u: p["mu"] + p["sigma"] / (2 * sp.erfcinv(u) ** 2),
    score=lambda p, x: -1.5 / (x - p["mu"]) + p["sigma"] / (2 * (x - p["mu"]) ** 2),
)

_register(
    "lognormal", ("mu", "sigma"),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "sigma"),
    logpdf=lambda p, x: (-np.log(x) - math.log(p["sigma"] * _SQRT2PI)
                         - (np.log(x) - p["mu"]) ** 2 / (2 * p["sigma"] ** 2)),
    pdf=lambda p, x: np.exp(-(np.log(x) - p["mu"]) ** 2 / (2 * p["sigma"] ** 2)) / (x * p["sigma"] * _SQRT2PI),
    cdf=lambda p, x: sp.ndtr((np.log(x) - p["mu"]) / p["sigma"]),
    sf=lambda p, x: sp.ndtr(-(np.log(x) - p["mu"]) / p["sigma"]),
    quantile=lambda p, u: np.exp(p["mu"] + p["sigma"] * sp.ndtri(u)),
    score=lambda p, x: ((p["mu"] - p["sigma"] ** 2) - np.log(x)) / (p["sigma"] ** 2 * x),
)

_register(
    "beta", ("alpha", "beta"),
    support=lambda p: Support(0.0, 1.0),
    validate=lambda p: _positive(p, "alpha", "beta"),
    logpdf=lambda p, x: ((p["alpha"] - 1) * np.log(x) + (p["beta"] - 1) * np.log1p(-x)
                         - sp.betaln(p["alpha"], p["beta"])),
    pdf=lambda p, x: np.exp((p["alpha"] - 1) * np.log(x) + (p["beta"] - 1) * np.log1p(-x)
                            - sp.betaln(p["alpha"], p["beta"])),
    cdf=lambda p, x: sp.betainc(p["alpha"], p["beta"], x),
    sf=lambda p, x: sp.betainc(p["beta"], p["alpha"], 1.0 - np.asarray(x, dtype=float)),
    quantile=lambda p, u: sp.betaincinv(p["alpha"], p["beta"], u),
    score=lambda p, x: (p["alpha"] - 1) / x - (p["beta"] - 1) / (1 - x),
)

_register(
    "uniform", ("left", "right"),
    defaults={"left": 0.0, "right": 1.0},
    support=lambda p: Support(p["left"], p["right"]),
    validate=lambda p: None if p["left"] < p["right"] else _raise(ParameterError("left must be < right")),
    logpdf=lambda p, x: np.full_like(np.asarray(x, dtype=float), -math.log(p["right"] - p["left"])),
    pdf=lambda p, x: np.full_like(np.asarray(x, dtype=float), 1.0 / (p["right"] - p["left"])),
    cdf=lambda p, x: (x - p["left"]) / (p["right"] - p["left"]),
    sf=lambda p, x: (p["right"] - np.asarray(x, dtype=float)) / (p["right"] - p["left"]),
    quantile=lambda p, u: p["left"] + (p["right"] - p["left"]) * u,
    score=lambda p, x: np.zeros_like(np.asarray(x, dtype=float)),
)

_register(
    "half_normal", (),
    support=lambda p: Support(0.0, _INF),
    logpdf=lambda p, x: 0.5 * math.log(2 / math.pi) - x ** 2 / 2,
    pdf=lambda p, x: math.sqrt(2 / math.pi) * np.exp(-(x ** 2) / 2),
    cdf=lambda p, x: sp.erf(x / math.sqrt(2)),
    sf=lambda p, x: sp.erfc(x / math.sqrt(2)),
    quantile=lambda p, u: sp.ndtri((1.0 + u) / 2.0),
    score=lambda p, x: -np.asarray(x, dtype=float),
)

_register(
    "half_cauchy", (),
    support=lambda p: Support(0.0, _INF),
    logpdf=lambda p, x: math.log(2 / math.pi) - np.log1p(x ** 2),
    pdf=lambda p, x: 2.0 / (math.pi * (1 + x ** 2)),
    cdf=lambda p, x: (2 / math.pi) * np.arctan(x),
    sf=lambda p, x: (2 / math.pi) * np.arctan(1.0 / np.asarray(x, dtype=float)),
    quantile=lambda p, u: np.tan(math.pi * u / 2),
    score=lambda p, x: -2 * x / (1 + x ** 2),
)

def _gompertz_logpdf(p, x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # expm1 overflows harmlessly to inf in the far tail
        g = np.expm1(x) / p["theta"]
    return x - math.log(p["theta"]) - g


def _gompertz_tail_exponent(p, x):
    with np.errstate(over="ignore"):
        return np.expm1(np.asarray(x, dtype=float)) / p["theta"]


_register(
    "gompertz", ("theta",),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "theta"),
    logpdf=_gompertz_logpdf,
    pdf=lambda p, x: np.exp(_gompertz_logpdf(p, x)),
    cdf=lambda p, x: -np.expm1(-_gompertz_tail_exponent(p, x)),
    sf=lambda p, x: np.exp(-_gompertz_tail_exponent(p, x)),
    quantile=lambda p, u: np.log1p(-p["theta"] * np.log1p(-u)),
    score=lambda p, x: 1.0 - np.exp(np.asarray(x, dtype=float)) / p["theta"],
)


def _lf_quantile(p, u):
    theta = p["theta"]
    s = -np.log1p(-u)
    # positive root of theta*x^2/2 + x - s = 0, rationalized for small theta*s
    return 2 * s / (1.0 + np.sqrt(1.0 + 2 * theta * s))


_register(
    "linear_failure_rate", ("theta",),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "theta"),
    logpdf=lambda p, x: np.log1p(p["theta"] * x) - x - p["theta"] * x ** 2 / 2,
    pdf=lambda p, x: (1 + p["theta"] * x) * np.exp(-x - p["theta"] * x ** 2 / 2),
    cdf=lambda p, x: -np.expm1(-x - p["theta"] * x ** 2 / 2),
    sf=lambda p, x: np.exp(-x - p["theta"] * x ** 2 / 2),
    quantile=_lf_quantile,
    score=lambda p, x: p["theta"] / (1 + p["theta"] * x) - 1 - p["theta"] * x,
)

_register(
    "inverse_weibull", ("theta",),
    support=lambda p: Support(0.0, _INF),
    validate=lambda p: _positive(p, "theta"),
    logpdf=lambda p, x: math.log(p["theta"]) - (p["theta"] + 1) * np.log(x) - x ** -p["theta"],
    pdf=lambda p, x: p["theta"] * x ** -(p["theta"] + 1) * np.exp(-(x ** -p["theta"])),
    cdf=lambda p, x: np.exp(-(x ** -p["theta"])),
    sf=lambda p, x: -np.expm1(-(x ** -p["theta"])),
    quantile=lambda p, u: (-np.log(u)) ** (-1.0 / p["theta"]),
    score=lambda p, x: -(p["theta"] + 1) / x + p["theta"] * x ** -(p["theta"] + 1),
)

_register(
    "shifted_gamma", ("k", "lam", "mu"),
    support=lambda p: Support(p["mu"], _INF),
    validate=lambda p: _positive(p, "k", "lam"),
    logpdf=lambda p, x: ((p["k"] - 1) * np.log(x - p["mu"]) - (x - p["mu"]) / p["lam"]
                         - p["k"] * math.log(p["lam"]) - math.lgamma(p["k"])),
    pdf=lambda p, x: np.exp((p["k"] - 1) * np.log(x - p["mu"]) - (x - p["mu"]) / p["lam"]
                            - p["k"] * math.log(p["lam"]) - math.lgamma(p["k"])),
    cdf=lambda p, x: sp.gammainc(p["k"], (x - p["mu"]) / p["lam"]),
    sf=lambda p, x: sp.gammaincc(p["k"], (x - p["mu"]) / p["lam"]),
    quantile=lambda p, u: p["mu"] + p["lam"] * sp.gammaincinv(p["k"], u),
    score=lambda p, x: (p["k"] - 1) / (x - p["mu"]) - 1.0 / p["lam"],
)


def _raise(exc):
    raise exc


FAMILIES = tuple(_REGISTRY)


def make_distribution(family: str, **params) -> DistributionSpec:
    """Construct and validate a catalog entry.

    Raises ParameterError for unknown families, unknown/missing parameter
    names, or parameter values violating the family constraints.
    """
    if family not in _REGISTRY:
        raise ParameterError(f"unknown family '{family}'; known: {', '.join(FAMILIES)}")
    fam = _REGISTRY[family]
    full = dict(fam.defaults)
    for key, val in params.items():
        if key not in fam.names:
            raise ParameterError(f"family '{family}' has no parameter '{key}' (expects {fam.names})")
        full[key] = float(val)
    missing = [nm for nm in fam.names if nm not in full]
    if missing:
        raise ParameterError(f"family '{family}' missing parameters: {missing}")
    fam.validate(full)
    support = fam.support(full)
    ordered = tuple((nm, full[nm]) for nm in fam.names)
    return DistributionSpec(family, ordered, support)


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def _scalarize(x_in, out):
    out = np.asarray(out, dtype=float)
    if np.isscalar(x_in) or (isinstance(x_in, np.ndarray) and x_in.ndim == 0):
        return float(out)
    return out


def _check_interior(dist: DistributionSpec, x):
    arr = np.asarray(x, dtype=float)
    if not np.all(dist.support.interior(arr)):
        raise DomainError(f"point outside the open support ({dist.support.left}, {dist.support.right}) "
                          f"of {dist.label}")


def pdf(dist: DistributionSpec, x):
    """Density p(x); raises DomainError outside the open support."""
    _check_interior(dist, x)
    return _scalarize(x, _REGISTRY[dist.family].pdf(dist.param_dict, np.asarray(x, dtype=float)))


def logpdf(dist: DistributionSpec, x):
    """log p(x), computed directly (not via log o pdf) for tail stability."""
    _check_interior(dist, x)
    return _scalarize(x, _REGISTRY[dist.family].logpdf(dist.param_dict, np.asarray(x, dtype=float)))


def cdf(dist: DistributionSpec, x):
    """Distribution function, clamped to 0 below the support and 1 above."""
    arr = np.asarray(x, dtype=float)
    sup = dist.support
    out = np.empty(arr.shape, dtype=float)
    below = arr <= sup.left
    above = arr >= sup.right
    inside = ~(below | above)
    out[below] = 0.0
    out[above] = 1.0
    if np.any(inside):
        vals = _REGISTRY[dist.family].cdf(dist.param_dict, arr[inside])
        out[inside] = np.clip(vals, 0.0, 1.0)
    return _scalarize(x, out)


def catalog_rows(family: str, fn: str, params: dict, X) -> np.ndarray:
    """The catalog function ``fn`` ("cdf", "score", ...) of ``family`` at X
    inside the support, unchecked.  ``params`` maps parameter names to values
    that broadcast against X, e.g. (rows, 1) columns holding one fit per row
    of a (rows, n) X; a parameter left out takes its default."""
    fam = _REGISTRY[family]
    return getattr(fam, fn)({**fam.defaults, **params}, np.asarray(X, dtype=float))


def sf(dist: DistributionSpec, x):
    """Survival function 1 - cdf(x), evaluated without cancellation."""
    arr = np.asarray(x, dtype=float)
    sup = dist.support
    out = np.empty(arr.shape, dtype=float)
    below = arr <= sup.left
    above = arr >= sup.right
    inside = ~(below | above)
    out[below] = 1.0
    out[above] = 0.0
    if np.any(inside):
        vals = _REGISTRY[dist.family].sf(dist.param_dict, arr[inside])
        out[inside] = np.clip(vals, 0.0, 1.0)
    return _scalarize(x, out)


def quantile(dist: DistributionSpec, u):
    """Inverse CDF on (0, 1); closed form where available, Brent otherwise."""
    arr = np.asarray(u, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise DomainError("quantile requires 0 < u < 1")
    fam = _REGISTRY[dist.family]
    if fam.quantile is not None:
        return _scalarize(u, fam.quantile(dist.param_dict, arr))
    flat = arr.ravel()
    out = np.array([_quantile_root(dist, float(ui)) for ui in flat]).reshape(arr.shape)
    return _scalarize(u, out)


def _quantile_root(dist: DistributionSpec, u: float) -> float:
    """Bracketed root-find of cdf(x) = u with an expanding bracket."""
    from scipy.optimize import brentq

    sup = dist.support
    lo = sup.left if sup.bounded_below else -1.0
    hi = sup.right if sup.bounded_above else 1.0
    if not sup.bounded_below:
        while cdf(dist, lo) > u:
            lo *= 2.0
    if not sup.bounded_above:
        while cdf(dist, hi) < u:
            hi *= 2.0
    return brentq(lambda x: cdf(dist, x) - u, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)


def score(dist: DistributionSpec, x):
    """Score p'(x)/p(x); domain error outside the open support and at knots."""
    _check_interior(dist, x)
    arr = np.asarray(x, dtype=float)
    for knot in dist.support.knots:
        if np.any(arr == knot):
            raise DomainError(f"score of {dist.label} is undefined at the knot x={knot}")
    return _scalarize(x, _REGISTRY[dist.family].score(dist.param_dict, arr))


_U_EPS = 2.0 ** -53  # keep inversion inputs strictly inside (0, 1)


def sample(dist: DistributionSpec, n: int, rng: RngStream) -> Sample:
    """Draw n iid variates, deterministically for a fixed stream.

    Inversion is the default; the inverse Gaussian uses the
    transformation-with-roots method, half-normal/half-Cauchy take the
    absolute value of the symmetric variate, and the Levy law is generated
    as mu + sigma/Z^2 for a standard normal Z.
    """
    return Sample(sample_rows(dist, n, [rng])[0])


def sample_rows(dist: DistributionSpec, n: int, rngs) -> np.ndarray:
    """One row of n variates per stream in ``rngs``, row j drawn as
    ``sample(dist, n, rngs[j])`` draws it: each stream gives its row's
    uniforms, and one transform maps the whole matrix of them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = dist.param_dict
    fam = dist.family
    if fam == "inverse_gaussian":
        return np.array([_sample_inverse_gaussian(p["mu"], p["lam"], n, rng.generator())
                         for rng in rngs])
    u = np.array([_uniforms(rng.generator(), n) for rng in rngs])
    if fam == "half_normal":
        return np.abs(sp.ndtri(u))
    if fam == "half_cauchy":
        return np.abs(np.tan(math.pi * (u - 0.5)))
    if fam == "levy":
        return p["mu"] + p["sigma"] / sp.ndtri(u) ** 2
    return np.asarray(quantile(dist, u), dtype=float)


def _uniforms(g: np.random.Generator, n: int) -> np.ndarray:
    return np.clip(g.random(n), _U_EPS, 1 - _U_EPS)


def _sample_inverse_gaussian(mu, lam, n, g):
    z = g.standard_normal(n)
    u = g.random(n)
    y = z * z
    x1 = mu + mu * mu * y / (2 * lam) - mu / (2 * lam) * np.sqrt(4 * mu * lam * y + (mu * y) ** 2)
    return np.where(u <= mu / (mu + x1), x1, mu * mu / x1)


def log_likelihood(dist: DistributionSpec, s) -> float:
    """Sum of log-densities; -inf sentinel if any observation lies outside."""
    vals = as_values(s)
    if not np.all(dist.support.interior(vals)):
        return -math.inf
    return float(np.sum(_REGISTRY[dist.family].logpdf(dist.param_dict, vals)))


def boundary_density_limit(dist: DistributionSpec, side: str) -> float:
    """Limit of the density at a finite support endpoint ('left' or 'right').

    Returns the exact analytic limit for bounded-support catalog families
    (inf when the density blows up).  Needed by the bounded-support
    characterization operators, whose identities carry this limit as an
    additive term.
    """
    sup = dist.support
    if side == "right":
        if not sup.bounded_above:
            raise DomainError("right endpoint is infinite")
        if dist.family == "uniform":
            return 1.0 / (sup.right - sup.left)
        if dist.family == "beta":
            b = dist.param("beta")
            if b > 1:
                return 0.0
            if b == 1:
                return float(np.exp(-sp.betaln(dist.param("alpha"), 1.0)))
            return math.inf
    elif side == "left":
        if not sup.bounded_below:
            raise DomainError("left endpoint is infinite")
        if dist.family == "uniform":
            return 1.0 / (sup.right - sup.left)
        if dist.family == "beta":
            a = dist.param("alpha")
            if a > 1:
                return 0.0
            if a == 1:
                return float(np.exp(-sp.betaln(1.0, dist.param("beta"))))
            return math.inf
        # families supported on [L, inf): limit of p at L
        eps = 1e-12 * max(1.0, abs(sup.left))
        lo = float(pdf(dist, sup.left + eps))
        hi = float(pdf(dist, sup.left + 10 * eps))
        return 0.5 * (lo + hi) if abs(hi - lo) <= 1e-6 * max(1.0, abs(lo)) else math.inf
    else:
        raise ValueError("side must be 'left' or 'right'")
    raise DomainError(f"no analytic boundary limit recorded for family '{dist.family}'")
