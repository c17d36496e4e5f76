"""Catalog of continuous univariate distributions.

Every family is one record (``_Family``) holding everything the catalog
knows about it: which parameters must be positive, log-density (the
density is its exponential), distribution function, survival function,
quantile, score (derivative of the log-density) and, where the family needs
them, a draw map from uniforms to variates, a direct sampler, and the limit
of the density at a finite support endpoint.  The operations below read the
record and never branch on a family's name; sampling is driven by a
reproducible counter-based RNG stream.  The catalog covers both the
hypothesis families used by the goodness-of-fit tests and the alternatives
used in the power studies.

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

import hashlib
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


class _SpecialOnFirstUse:
    """Stands in for scipy.special, steinfit's costliest import with the scipy
    package, which the Burr family's path never touches: the first attribute
    read imports the module and rebinds ``sp`` to it."""

    def __getattr__(self, name):
        global sp
        import scipy.special as sp
        return getattr(sp, name)


sp = sys.modules.get("scipy.special") or _SpecialOnFirstUse()


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

    @property
    def param_dict(self) -> dict[str, float]:
        return dict(self.params)

    @property
    def label(self) -> str:
        vals = ",".join(_fmt_num(v) for _, v in self.params)
        return f"{self.family}({vals})"


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def as_values(s) -> np.ndarray:
    """Any array-like as a 1-d float array."""
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
    return _stream_id(_fed(hashlib.sha256(str(int(base)).encode()), keys))


def _fed(h, keys):
    """SHA-256 state h fed each key after a 0x1f separator."""
    for k in keys:
        h.update(b"\x1f" + str(k).encode())
    return h


def _stream_id(h) -> int:
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

    @property
    def key(self) -> np.ndarray:
        return np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key))

    def child(self, *keys) -> "RngStream":
        return RngStream(self.seed, derive_stream_id(self.stream_id, *keys))

    def children(self, prefix, keys) -> list["RngStream"]:
        """``[self.child(*prefix, key) for key in keys]``, hashing the stream
        id and ``prefix`` once and a copy of that hash for each key."""
        h = _fed(hashlib.sha256(str(int(self.stream_id)).encode()), prefix)
        return [RngStream(self.seed, _stream_id(_fed(h.copy(), (key,)))) for key in keys]

    def fingerprint(self) -> str:
        return f"philox:{self.seed}:{self.stream_id}"


# --------------------------------------------------------------------------
# Family implementations
# --------------------------------------------------------------------------

_INF = math.inf


@dataclass(frozen=True, kw_only=True)
class _Family:
    """Everything the catalog knows about one family.  The callables take
    (params dict, ndarray) unless noted and are vectorized; the operations
    below read this record and never test a family's name."""

    names: tuple[str, ...]
    positive: tuple[str, ...] = ()  # parameters that must be > 0
    support: Callable  # params -> Support
    logpdf: Callable
    cdf: Callable
    sf: Callable
    score: Callable
    quantile: Callable | None = None  # None: bracketed root-find on the CDF
    draw: Callable | None = None  # uniforms -> variates, when not the quantile
    sampler: Callable | None = None  # (params, n, Generator) -> n variates, no uniforms
    endpoint_density: Callable | None = None  # (params, side) -> limit of p there
    defaults: dict = field(default_factory=dict)


_REGISTRY: dict[str, _Family] = {}


def _register(tag, names, **fields):
    _REGISTRY[tag] = _Family(names=names, **fields)


_SQRT2PI = math.sqrt(2 * math.pi)
_TINY = np.finfo(float).tiny  # smallest positive normal double


def logistic(x):
    """The logistic sigmoid 1/(1 + e^-x), scipy.special.expit's formula;
    where e^-x overflows to inf, below x = -709.78, the value is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log1p_exp(z):
    """log(1 + e^z) as max(z, 0) + log1p(e^-|z|): np.logaddexp(0, z) within
    4.4e-16 relative, without its scalar loop."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


_register(
    "normal", ("mu", "sigma2"),
    support=lambda p: Support(-_INF, _INF),
    positive=("sigma2",),
    logpdf=lambda p, x: -0.5 * (x - p["mu"]) ** 2 / p["sigma2"] - 0.5 * math.log(2 * math.pi * p["sigma2"]),
    cdf=lambda p, x: sp.ndtr((x - p["mu"]) / np.sqrt(p["sigma2"])),
    sf=lambda p, x: sp.ndtr(-(x - p["mu"]) / np.sqrt(p["sigma2"])),
    quantile=lambda p, u: p["mu"] + math.sqrt(p["sigma2"]) * sp.ndtri(u),
    score=lambda p, x: -(x - p["mu"]) / p["sigma2"],
)

_register(
    "laplace", ("mu", "sigma"),
    support=lambda p: Support(-_INF, _INF, (p["mu"],)),
    positive=("sigma",),
    logpdf=lambda p, x: -np.abs(x - p["mu"]) / p["sigma"] - math.log(2 * p["sigma"]),
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


def _gamma_draw(p, u):
    """Gamma(k, lam) variates at uniforms u.  Below k = 0.05 or so the
    smallest standard variates underflow to 0 or a subnormal, and for lam < 1
    so do the scaled ones, where the score (k-1)/x overflows: both are
    floored at _TINY, which leaves every variate above it as it was.  Where
    the scaled variate overflows (k and lam near 1e308) it is inf."""
    with np.errstate(over="ignore"):
        return np.maximum(p["lam"] * np.maximum(sp.gammaincinv(p["k"], u), _TINY), _TINY)


_register(
    "gamma", ("k", "lam"),
    support=lambda p: Support(0.0, _INF),
    positive=("k", "lam"),
    logpdf=lambda p, x: ((p["k"] - 1) * np.log(x) - x / p["lam"]
                         - p["k"] * math.log(p["lam"]) - math.lgamma(p["k"])),
    cdf=lambda p, x: sp.gammainc(p["k"], x / p["lam"]),
    sf=lambda p, x: sp.gammaincc(p["k"], x / p["lam"]),
    quantile=lambda p, u: p["lam"] * sp.gammaincinv(p["k"], u),
    draw=_gamma_draw,
    score=lambda p, x: (p["k"] - 1) / x - 1.0 / p["lam"],
)

_register(
    "exponential", ("lam",),
    support=lambda p: Support(0.0, _INF),
    positive=("lam",),
    logpdf=lambda p, x: math.log(p["lam"]) - p["lam"] * x,
    cdf=lambda p, x: -np.expm1(-p["lam"] * x),
    sf=lambda p, x: np.exp(-p["lam"] * x),
    quantile=lambda p, u: -np.log1p(-u) / p["lam"],
    score=lambda p, x: -p["lam"] * np.ones_like(np.asarray(x, dtype=float)),
)


def _ig_cdf(p, x, sign=1.0):
    """The CDF, or with sign -1 the survival function."""
    mu, lam = p["mu"], p["lam"]
    r = np.sqrt(lam / x)
    # second term written as exp(2*lam/mu + log Phi(-r(x/mu+1))) to avoid overflow
    return (sp.ndtr(sign * r * (x / mu - 1))
            + sign * np.exp(2 * lam / mu + sp.log_ndtr(-r * (x / mu + 1))))


def _sample_inverse_gaussian(p, n, g):
    # transformation with multiple roots (Michael, Schucany & Haas 1976)
    mu, lam = p["mu"], p["lam"]
    z = g.standard_normal(n)
    u = g.random(n)
    y = z * z
    x1 = mu + mu * mu * y / (2 * lam) - mu / (2 * lam) * np.sqrt(4 * mu * lam * y + (mu * y) ** 2)
    return np.where(u <= mu / (mu + x1), x1, mu * mu / x1)


_register(
    "inverse_gaussian", ("mu", "lam"),
    support=lambda p: Support(0.0, _INF),
    positive=("mu", "lam"),
    logpdf=lambda p, x: (0.5 * math.log(p["lam"] / (2 * math.pi)) - 1.5 * np.log(x)
                         - p["lam"] * (x - p["mu"]) ** 2 / (2 * p["mu"] ** 2 * x)),
    cdf=_ig_cdf,
    sf=lambda p, x: _ig_cdf(p, x, -1.0),
    sampler=_sample_inverse_gaussian,
    score=lambda p, x: p["lam"] / (2 * x ** 2) - 1.5 / x - p["lam"] / (2 * p["mu"] ** 2),
)


def _weibull_H(p, x):
    """The cumulative hazard (x/lam)^k; inf where it overflows."""
    with np.errstate(over="ignore"):
        return (x / p["lam"]) ** p["k"]


_register(
    "weibull", ("k", "lam"),
    support=lambda p: Support(0.0, _INF),
    positive=("k", "lam"),
    logpdf=lambda p, x: (math.log(p["k"] / p["lam"]) + (p["k"] - 1) * np.log(x / p["lam"])
                         - _weibull_H(p, x)),
    cdf=lambda p, x: -np.expm1(-_weibull_H(p, x)),
    sf=lambda p, x: np.exp(-_weibull_H(p, x)),
    quantile=lambda p, u: p["lam"] * (-np.log1p(-u)) ** (1.0 / p["k"]),
    score=lambda p, x: (p["k"] - 1) / x - (p["k"] / x) * _weibull_H(p, x),
)


def burr_coefficients(x, k, c):
    """Per-observation operator coefficients of Burr XII(k, c) at scale 1:

        A1_j = c(k+1) x^(c-1)/(1+x^c) - (c-1)/x      (score, negated)
        A2_j = -c(k+1) x^c/(1+x^c)

    computed through the logistic sigmoid of c*log(x) so large powers never
    overflow.  They satisfy x*A1 = -A2 - (c-1) identically.  A1 is the one
    Burr score formula: the record's score at scale sigma is -A1(x/sigma)/sigma.
    """
    x = np.asarray(x, dtype=float)
    ratio = logistic(c * np.log(x))  # x^c / (1 + x^c)
    A2 = -c * (k + 1.0) * ratio
    A1 = (-A2 - (c - 1.0)) / x
    return A1, A2


def _burr_quantile(p, u):
    with np.errstate(over="ignore"):  # expm1 overflows to inf at extreme fits
        return p["sigma"] * np.expm1(-np.log1p(-u) / p["k"]) ** (1.0 / p["c"])


_register(
    "burr_xii", ("k", "c", "sigma"),
    defaults={"sigma": 1.0},
    support=lambda p: Support(0.0, _INF),
    positive=("k", "c", "sigma"),
    logpdf=lambda p, x: (math.log(p["c"] * p["k"] / p["sigma"])
                         + (p["c"] - 1) * np.log(x / p["sigma"])
                         - (p["k"] + 1) * log1p_exp(p["c"] * np.log(x / p["sigma"]))),
    cdf=lambda p, x: -np.expm1(-p["k"] * log1p_exp(p["c"] * np.log(x / p["sigma"]))),
    sf=lambda p, x: np.exp(-p["k"] * log1p_exp(p["c"] * np.log(x / p["sigma"]))),
    quantile=_burr_quantile,
    score=lambda p, x: -burr_coefficients(x / p["sigma"], p["k"], p["c"])[0] / p["sigma"],
)

_register(
    "levy", ("mu", "sigma"),
    support=lambda p: Support(p["mu"], _INF),
    positive=("sigma",),
    logpdf=lambda p, x: (0.5 * math.log(p["sigma"] / (2 * math.pi))
                         - 1.5 * np.log(x - p["mu"]) - p["sigma"] / (2 * (x - p["mu"]))),
    cdf=lambda p, x: sp.erfc(np.sqrt(p["sigma"] / (2 * (x - p["mu"])))),
    sf=lambda p, x: sp.erf(np.sqrt(p["sigma"] / (2 * (x - p["mu"])))),
    quantile=lambda p, u: p["mu"] + p["sigma"] / (2 * sp.erfcinv(u) ** 2),
    draw=lambda p, u: p["mu"] + p["sigma"] / sp.ndtri(u) ** 2,  # mu + sigma/Z^2
    score=lambda p, x: -1.5 / (x - p["mu"]) + p["sigma"] / (2 * (x - p["mu"]) ** 2),
)

_register(
    "lognormal", ("mu", "sigma"),
    support=lambda p: Support(0.0, _INF),
    positive=("sigma",),
    logpdf=lambda p, x: (-np.log(x) - math.log(p["sigma"] * _SQRT2PI)
                         - (np.log(x) - p["mu"]) ** 2 / (2 * p["sigma"] ** 2)),
    cdf=lambda p, x: sp.ndtr((np.log(x) - p["mu"]) / p["sigma"]),
    sf=lambda p, x: sp.ndtr(-(np.log(x) - p["mu"]) / p["sigma"]),
    quantile=lambda p, u: np.exp(p["mu"] + p["sigma"] * sp.ndtri(u)),
    score=lambda p, x: ((p["mu"] - p["sigma"] ** 2) - np.log(x)) / (p["sigma"] ** 2 * x),
)


def _beta_endpoint_density(p, side):
    # p(x) behaves as x^(alpha-1) / B(alpha, beta) at 0, as (1-x)^(beta-1) / B at 1
    e = p["alpha"] if side == "left" else p["beta"]
    if e != 1:
        return 0.0 if e > 1 else math.inf
    return float(np.exp(-sp.betaln(p["alpha"], p["beta"])))


_register(
    "beta", ("alpha", "beta"),
    support=lambda p: Support(0.0, 1.0),
    positive=("alpha", "beta"),
    logpdf=lambda p, x: ((p["alpha"] - 1) * np.log(x) + (p["beta"] - 1) * np.log1p(-x)
                         - sp.betaln(p["alpha"], p["beta"])),
    cdf=lambda p, x: sp.betainc(p["alpha"], p["beta"], x),
    sf=lambda p, x: sp.betainc(p["beta"], p["alpha"], 1.0 - np.asarray(x, dtype=float)),
    quantile=lambda p, u: sp.betaincinv(p["alpha"], p["beta"], u),
    score=lambda p, x: (p["alpha"] - 1) / x - (p["beta"] - 1) / (1 - x),
    endpoint_density=_beta_endpoint_density,
)

_register(
    "uniform", ("left", "right"),
    defaults={"left": 0.0, "right": 1.0},
    support=lambda p: Support(p["left"], p["right"]),
    logpdf=lambda p, x: np.full_like(np.asarray(x, dtype=float), -math.log(p["right"] - p["left"])),
    cdf=lambda p, x: (x - p["left"]) / (p["right"] - p["left"]),
    sf=lambda p, x: (p["right"] - np.asarray(x, dtype=float)) / (p["right"] - p["left"]),
    quantile=lambda p, u: p["left"] + (p["right"] - p["left"]) * u,
    score=lambda p, x: np.zeros_like(np.asarray(x, dtype=float)),
    endpoint_density=lambda p, side: 1.0 / (p["right"] - p["left"]),
)

_register(
    "half_normal", (),
    support=lambda p: Support(0.0, _INF),
    logpdf=lambda p, x: 0.5 * math.log(2 / math.pi) - x ** 2 / 2,
    cdf=lambda p, x: sp.erf(x / math.sqrt(2)),
    sf=lambda p, x: sp.erfc(x / math.sqrt(2)),
    quantile=lambda p, u: sp.ndtri((1.0 + u) / 2.0),
    draw=lambda p, u: np.abs(sp.ndtri(u)),  # |N(0, 1)|
    score=lambda p, x: -np.asarray(x, dtype=float),
)

_register(
    "half_cauchy", (),
    support=lambda p: Support(0.0, _INF),
    logpdf=lambda p, x: math.log(2 / math.pi) - np.log1p(x ** 2),
    cdf=lambda p, x: (2 / math.pi) * np.arctan(x),
    sf=lambda p, x: (2 / math.pi) * np.arctan(1.0 / np.asarray(x, dtype=float)),
    quantile=lambda p, u: np.tan(math.pi * u / 2),
    draw=lambda p, u: np.abs(np.tan(math.pi * (u - 0.5))),  # |Cauchy(0, 1)|
    score=lambda p, x: -2 * x / (1 + x ** 2),
)


def _gompertz_tail_exponent(p, x):
    with np.errstate(over="ignore"):  # expm1 overflows harmlessly to inf in the far tail
        return np.expm1(np.asarray(x, dtype=float)) / p["theta"]


_register(
    "gompertz", ("theta",),
    support=lambda p: Support(0.0, _INF),
    positive=("theta",),
    logpdf=lambda p, x: x - math.log(p["theta"]) - _gompertz_tail_exponent(p, x),
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
    positive=("theta",),
    logpdf=lambda p, x: np.log1p(p["theta"] * x) - x - p["theta"] * x ** 2 / 2,
    cdf=lambda p, x: -np.expm1(-x - p["theta"] * x ** 2 / 2),
    sf=lambda p, x: np.exp(-x - p["theta"] * x ** 2 / 2),
    quantile=_lf_quantile,
    score=lambda p, x: p["theta"] / (1 + p["theta"] * x) - 1 - p["theta"] * x,
)


def _inverse_power(x, e):
    """x^-e; inf where it overflows."""
    with np.errstate(over="ignore"):
        return x ** -e


_register(
    "inverse_weibull", ("theta",),
    support=lambda p: Support(0.0, _INF),
    positive=("theta",),
    logpdf=lambda p, x: (math.log(p["theta"]) - (p["theta"] + 1) * np.log(x)
                         - _inverse_power(x, p["theta"])),
    cdf=lambda p, x: np.exp(-_inverse_power(x, p["theta"])),
    sf=lambda p, x: -np.expm1(-_inverse_power(x, p["theta"])),
    quantile=lambda p, u: _inverse_power(-np.log(u), 1.0 / p["theta"]),
    score=lambda p, x: -(p["theta"] + 1) / x + p["theta"] * _inverse_power(x, p["theta"] + 1),
)

# gamma translated to (mu, inf): the gamma record's formulas at x - mu
_register(
    "shifted_gamma", ("k", "lam", "mu"),
    support=lambda p: Support(p["mu"], _INF),
    positive=("k", "lam"),
    logpdf=lambda p, x: _REGISTRY["gamma"].logpdf(p, x - p["mu"]),
    cdf=lambda p, x: _REGISTRY["gamma"].cdf(p, x - p["mu"]),
    sf=lambda p, x: _REGISTRY["gamma"].sf(p, x - p["mu"]),
    quantile=lambda p, u: p["mu"] + _REGISTRY["gamma"].quantile(p, u),
    # the sum is floored at the next double above mu, which it rounds to when
    # the gamma draw is below half an ulp of mu
    draw=lambda p, u: np.maximum(p["mu"] + _gamma_draw(p, u), np.nextafter(p["mu"], _INF)),
    score=lambda p, x: _REGISTRY["gamma"].score(p, x - p["mu"]),
)


FAMILIES = tuple(_REGISTRY)


def make_distribution(family: str, **params) -> DistributionSpec:
    """Construct and validate a catalog entry.

    Raises ParameterError for unknown families, unknown/missing parameter
    names, non-finite values, values the family needs positive that are not,
    and parameters that give no valid support.
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
    for name, val in full.items():
        if not math.isfinite(val):
            raise ParameterError(f"parameter '{name}' must be finite, got {val}")
    for name in fam.positive:
        if not full[name] > 0:
            raise ParameterError(f"parameter '{name}' must be > 0, got {full[name]}")
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


def _interior(dist: DistributionSpec, fn: str, x):
    """The record's ``fn`` at x; DomainError outside the open support."""
    arr = np.asarray(x, dtype=float)
    if not np.all(dist.support.interior(arr)):
        raise DomainError(f"point outside the open support ({dist.support.left}, {dist.support.right}) "
                          f"of {dist.label}")
    return _scalarize(x, getattr(_REGISTRY[dist.family], fn)(dist.param_dict, arr))


def pdf(dist: DistributionSpec, x):
    """Density p(x) = exp(log p(x)); raises DomainError outside the open support."""
    return _scalarize(x, np.exp(logpdf(dist, x)))


def logpdf(dist: DistributionSpec, x):
    """log p(x); raises DomainError outside the open support."""
    return _interior(dist, "logpdf", x)


def _clamped(dist: DistributionSpec, fn: str, x, below: float, above: float):
    """The record's ``fn`` inside the support, clipped to [0, 1], and the
    constants ``below`` and ``above`` outside it."""
    arr = np.asarray(x, dtype=float)
    sup = dist.support
    out = np.empty(arr.shape, dtype=float)
    lo = arr <= sup.left
    hi = arr >= sup.right
    inside = ~(lo | hi)
    out[lo] = below
    out[hi] = above
    if np.any(inside):
        vals = getattr(_REGISTRY[dist.family], fn)(dist.param_dict, arr[inside])
        out[inside] = np.clip(vals, 0.0, 1.0)
    return _scalarize(x, out)


def cdf(dist: DistributionSpec, x):
    """Distribution function, clamped to 0 below the support and 1 above."""
    return _clamped(dist, "cdf", x, 0.0, 1.0)


def catalog_rows(family: str, fn: str, params: dict, X) -> np.ndarray:
    """The catalog function ``fn`` ("cdf", "score", ...) of ``family`` at X
    inside the support, unchecked.  ``params`` maps parameter names to values
    that broadcast against X, e.g. (rows, 1) columns holding one fit per row
    of a (rows, n) X; a parameter left out takes its default."""
    fam = _REGISTRY[family]
    return getattr(fam, fn)({**fam.defaults, **params}, np.asarray(X, dtype=float))


def sf(dist: DistributionSpec, x):
    """Survival function 1 - cdf(x), evaluated without cancellation."""
    return _clamped(dist, "sf", x, 1.0, 0.0)


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
    for knot in dist.support.knots:
        if np.any(np.asarray(x, dtype=float) == knot):
            raise DomainError(f"score of {dist.label} is undefined at the knot x={knot}")
    return _interior(dist, "score", x)


_U_EPS = 2.0 ** -53  # keep inversion inputs strictly inside (0, 1)


def sample(dist: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw n iid variates, deterministically for a fixed stream.

    The family's record says how: its ``sampler`` when it has one (the
    inverse Gaussian's transformation with roots), else its ``draw`` map of
    uniforms (half-normal and half-Cauchy take the absolute value of the
    symmetric variate, the Levy law is mu + sigma/Z^2 for a standard normal
    Z, the gamma laws floor their standard variate at the smallest normal
    double), else inversion through ``quantile``.
    """
    return sample_rows(dist, n, [rng])[0]


def sample_rows(dist: DistributionSpec, n: int, rngs) -> np.ndarray:
    """One row of n variates per stream in ``rngs``, row j drawn as
    ``sample(dist, n, rngs[j])`` draws it: each stream gives its row's
    uniforms, and one transform maps the whole matrix of them (a family
    with its own sampler draws each row from its stream's generator)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fam = _REGISTRY[dist.family]
    p = dist.param_dict
    rows = np.empty((len(rngs), n))
    for row, g in zip(rows, _generators(rngs)):
        if fam.sampler is None:
            g.random(out=row)
        else:
            row[:] = fam.sampler(p, n, g)
    if fam.sampler is not None:
        return rows
    u = np.clip(rows, _U_EPS, 1 - _U_EPS)
    if fam.draw is not None:
        return fam.draw(p, u)
    return np.asarray(quantile(dist, u), dtype=float)


def _generators(rngs):
    """``rng.generator()`` for each stream in rngs in turn: one Philox
    generator, re-keyed to each stream.  Philox is counter-based, so a
    stream is its key, and re-keyed with its counter at 0 and its buffer
    empty the generator is in the state a new one starts from.  Use each
    before the next."""
    g = RngStream(0).generator()
    fresh = g.bit_generator.state
    for rng in rngs:
        fresh["state"]["key"] = rng.key
        g.bit_generator.state = fresh
        yield g


def log_likelihood(dist: DistributionSpec, s) -> float:
    """Sum of log-densities; -inf sentinel if any observation lies outside."""
    vals = as_values(s)
    if not np.all(dist.support.interior(vals)):
        return -math.inf
    return float(np.sum(_REGISTRY[dist.family].logpdf(dist.param_dict, vals)))


def boundary_density_limit(dist: DistributionSpec, side: str) -> float:
    """Limit of the density at a finite support endpoint ('left' or 'right').

    Returns the exact analytic limit from the family's record (inf when the
    density blows up); DomainError when the endpoint is infinite or the
    record has no such limit.  Needed by the bounded-support
    characterization operators, whose identities carry this limit as an
    additive term.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    sup = dist.support
    if not (sup.bounded_below if side == "left" else sup.bounded_above):
        raise DomainError(f"{side} endpoint is infinite")
    endpoint_density = _REGISTRY[dist.family].endpoint_density
    if endpoint_density is None:
        raise DomainError(f"no analytic boundary limit recorded for family '{dist.family}'")
    return endpoint_density(dist.param_dict, side)
