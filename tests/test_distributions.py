import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_strat
from scipy import integrate, special
from scipy.stats import kstest

from steinfit.distributions import (
    DomainError,
    ParameterError,
    RngStream,
    boundary_density_limit,
    burr_coefficients,
    cdf,
    log_likelihood,
    log1p_exp,
    logistic,
    logpdf,
    make_distribution,
    pdf,
    quantile,
    sample,
    sample_rows,
    score,
    sf,
)

# one representative, well-conditioned parameter set per family
CATALOG = [
    ("normal", dict(mu=0.3, sigma2=2.0)),
    ("laplace", dict(mu=-0.5, sigma=1.2)),
    ("gamma", dict(k=2.0, lam=1.5)),
    ("exponential", dict(lam=1.0)),
    ("inverse_gaussian", dict(mu=1.0, lam=0.5)),
    ("weibull", dict(k=1.5, lam=1.0)),
    ("burr_xii", dict(k=2.0, c=3.0)),
    ("levy", dict(mu=0.0, sigma=1.0)),
    ("lognormal", dict(mu=0.0, sigma=1.0)),
    ("beta", dict(alpha=2.0, beta=3.0)),
    ("uniform", dict(left=0.0, right=1.0)),
    ("half_normal", {}),
    ("half_cauchy", {}),
    ("gompertz", dict(theta=2.0)),
    ("linear_failure_rate", dict(theta=2.0)),
    ("inverse_weibull", dict(theta=1.0)),
    ("shifted_gamma", dict(k=2.0, lam=1.0, mu=1.0)),
]


def _dist(family, kw):
    return make_distribution(family, **kw)


# --------------------------------------------------------------------------
# spec examples
# --------------------------------------------------------------------------

def test_pdf_hand_values():
    assert pdf(_dist("burr_xii", dict(k=1, c=1)), 1.0) == pytest.approx(0.25, abs=1e-15)
    assert pdf(_dist("exponential", dict(lam=1)), 1.0) == pytest.approx(math.exp(-1), rel=1e-14)
    assert pdf(_dist("uniform", dict(left=0, right=1)), 0.5) == 1.0


def test_cdf_hand_values():
    assert cdf(_dist("burr_xii", dict(k=1, c=1)), 1.0) == pytest.approx(0.5, abs=1e-15)
    assert cdf(_dist("linear_failure_rate", dict(theta=2)), 1.0) == pytest.approx(1 - math.exp(-2), rel=1e-14)
    assert cdf(_dist("gompertz", dict(theta=2)), 0.0) == 0.0


def test_quantile_hand_values():
    assert quantile(_dist("burr_xii", dict(k=1, c=1)), 0.5) == pytest.approx(1.0, rel=1e-12)
    assert quantile(_dist("inverse_weibull", dict(theta=1)), math.exp(-1)) == pytest.approx(1.0, rel=1e-12)
    assert quantile(_dist("linear_failure_rate", dict(theta=2)), 1 - math.exp(-2)) == pytest.approx(1.0, rel=1e-12)


def test_score_hand_values():
    assert score(_dist("burr_xii", dict(k=1, c=1)), 1.0) == pytest.approx(-1.0, abs=1e-14)
    assert score(_dist("normal", dict(mu=0, sigma2=4)), 2.0) == pytest.approx(-0.5, abs=1e-15)
    assert score(_dist("laplace", dict(mu=0, sigma=1)), -3.0) == pytest.approx(1.0, abs=1e-15)


def test_log_likelihood_values():
    assert log_likelihood(_dist("exponential", dict(lam=1)), [1.0, 2.0]) == pytest.approx(-3.0, rel=1e-14)
    assert log_likelihood(_dist("burr_xii", dict(k=1, c=1)), [1.0]) == pytest.approx(math.log(0.25), rel=1e-14)
    assert log_likelihood(_dist("uniform", dict(left=0, right=1)), [0.5, 2.0]) == -math.inf


# --------------------------------------------------------------------------
# contracts
# --------------------------------------------------------------------------

@pytest.mark.parametrize("family,kw", CATALOG)
def test_logpdf_matches_log_of_pdf(family, kw):
    # pdf is exp(logpdf), so the density is checked against an independent
    # one: central differences of the catalog CDF
    dist = _dist(family, kw)
    x = quantile(dist, np.linspace(0.02, 0.98, 25))
    for knot in dist.support.knots:  # keep the stencil away from kinks
        x = x[np.abs(x - knot) > 1e-3]
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    fd = (cdf(dist, x + h) - cdf(dist, x - h)) / (2 * h)
    np.testing.assert_allclose(pdf(dist, x), fd, rtol=1e-7)


@pytest.mark.parametrize("family, kw, x", [("levy", dict(mu=0, sigma=1), 1e-300),
                                           ("inverse_gaussian", dict(mu=1, lam=1), 1e-300),
                                           ("inverse_weibull", dict(theta=1), 1e-200)])
def test_pdf_vanishes_silently_near_the_left_endpoint(family, kw, x):
    # the density underflows to 0 there; no inf * 0 = NaN, no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pdf(_dist(family, kw), x) == 0.0
        assert pdf(_dist(family, kw), np.array([x, 1.0]))[0] == 0.0


@pytest.mark.parametrize("family,kw", CATALOG)
def test_cdf_quantile_round_trip(family, kw):
    dist = _dist(family, kw)
    u = np.linspace(1e-8, 1 - 1e-8, 301)
    np.testing.assert_allclose(cdf(dist, quantile(dist, u)), u, atol=1e-10)


@pytest.mark.parametrize("family,kw", CATALOG)
def test_sf_complements_cdf(family, kw):
    dist = _dist(family, kw)
    x = quantile(dist, np.linspace(0.01, 0.99, 21))
    np.testing.assert_allclose(sf(dist, x) + cdf(dist, x), 1.0, atol=1e-12)


@pytest.mark.parametrize("family,kw", CATALOG)
def test_score_matches_finite_difference(family, kw):
    dist = _dist(family, kw)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.01, 0.99, size=1000)
    x = quantile(dist, u)
    for knot in dist.support.knots:  # keep the stencil away from kinks
        x = x[np.abs(x - knot) > 1e-3]
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (logpdf(dist, x + h) - logpdf(dist, x - h)) / (2 * h)
    np.testing.assert_allclose(score(dist, x), fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("family,kw", CATALOG)
def test_pdf_normalizes(family, kw):
    dist = _dist(family, kw)
    sup = dist.support
    edges = [sup.left] + list(sup.knots) + [sup.right]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda x: pdf(dist, x), lo, hi, limit=300)
        total += val
    assert abs(total - 1.0) <= 1e-8


@pytest.mark.parametrize("family,kw", CATALOG)
def test_sampler_matches_cdf(family, kw):
    # smoke test at the 0.001 level, not a proof; no streams draw no rows
    dist = _dist(family, kw)
    vals = sample(dist, 10_000, RngStream(2024, 5))
    res = kstest(vals, lambda x: cdf(dist, x))
    assert res.pvalue > 0.001
    assert sample_rows(dist, 5, []).shape == (0, 5)


def test_sampler_deterministic():
    dist = _dist("burr_xii", dict(k=1, c=1))
    a = sample(dist, 64, RngStream(11, 3))
    b = sample(dist, 64, RngStream(11, 3))
    c = sample(dist, 64, RngStream(11, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("prefix, keys", [
    (("boot",), range(1000)),
    (("alt", "W(0.5)", "rep"), range(-3, 997)),
    (("stat",), ["B_3", "KS", "L2_0.25", "", "x\x1fy"]),
    ((), [0, "0", 1.5]),
])
def test_children_are_the_child_streams(prefix, keys):
    root = RngStream(7, 11).child("alt", "Burr(1,1)", "rep", 3)
    assert root.children(prefix, keys) == [root.child(*prefix, key) for key in keys]


def test_inverse_gaussian_sampler_mean():
    # IG(mu=1, lam=theta) has mean 1; moments confirmed by quadrature
    dist = _dist("inverse_gaussian", dict(mu=1.0, lam=0.5))
    mean, _ = integrate.quad(lambda x: x * pdf(dist, x), 0, np.inf, limit=300)
    var, _ = integrate.quad(lambda x: (x - mean) ** 2 * pdf(dist, x), 0, np.inf, limit=300)
    assert mean == pytest.approx(1.0, abs=1e-8)
    vals = sample(dist, 100_000, RngStream(8))
    assert abs(vals.mean() - mean) < 3 * math.sqrt(var / vals.size)


def test_burr_score_bound():
    # |score(x) * x| <= |c-1| + c(k+1): the characterization needs no moments
    for k, c in [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0), (4.0, 2.0)]:
        dist = _dist("burr_xii", dict(k=k, c=c))
        x = quantile(dist, np.linspace(1e-6, 1 - 1e-6, 2001))
        bound = abs(c - 1) + c * (k + 1)
        assert np.all(np.abs(score(dist, x) * x) <= bound * (1 + 1e-12))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
def test_burr_score_is_the_negated_coefficient(sigma):
    # the record's score is -A1(x/sigma)/sigma, one formula with the
    # statistics' coefficients, and it is the derivative of the log-density
    dist = _dist("burr_xii", dict(k=1.7, c=2.3, sigma=sigma))
    x = quantile(dist, np.random.default_rng(8).uniform(0.01, 0.99, 1000))
    got = score(dist, x)
    assert np.array_equal(got, -burr_coefficients(x / sigma, 1.7, 2.3)[0] / sigma)
    h = 1e-6 * np.maximum(1.0, x)
    fd = (logpdf(dist, x + h) - logpdf(dist, x - h)) / (2 * h)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6 / sigma)


@pytest.mark.parametrize("k, lam, mu", [(2.0, 1.5, 1.0), (0.5, 1.0, -3.0), (7.3, 0.2, 1e3),
                                      (0.0109, 4.0, 0.0)])
def test_shifted_gamma_is_gamma_at_x_minus_mu(k, lam, mu):
    # every formula of the shifted record is the gamma record's at x - mu,
    # to the bit, and the quantile is mu plus gamma's
    shifted = _dist("shifted_gamma", dict(k=k, lam=lam, mu=mu))
    gamma = _dist("gamma", dict(k=k, lam=lam))
    u = np.random.default_rng(9).uniform(0.001, 0.999, 500)
    x = quantile(shifted, u)
    x = x[x > mu]
    for fn in (logpdf, cdf, sf, score):
        assert np.array_equal(fn(shifted, x), fn(gamma, x - mu)), fn.__name__
    assert np.array_equal(quantile(shifted, u), mu + quantile(gamma, u))


def test_gamma_draws_at_huge_parameters_overflow_silently():
    # at k = lam = 1e308 the scaled variate lam * gammaincinv(k, u) overflows:
    # the draw is inf, without a RuntimeWarning
    dist = _dist("gamma", dict(k=1e308, lam=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = sample_rows(dist, 10, [RngStream(2).child("boot", b) for b in range(3)])
    assert np.isposinf(got).all()


# --------------------------------------------------------------------------
# domain and parameter errors
# --------------------------------------------------------------------------

def test_domain_errors():
    uni = _dist("uniform", dict(left=0, right=1))
    with pytest.raises(DomainError):
        pdf(uni, 1.5)
    with pytest.raises(DomainError):
        quantile(uni, 0.0)
    lap = _dist("laplace", dict(mu=0.5, sigma=1))
    with pytest.raises(DomainError):
        score(lap, 0.5)  # knot
    levy = _dist("levy", dict(mu=1.0, sigma=1))
    with pytest.raises(DomainError):
        score(levy, 0.5)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        make_distribution("gamma", k=-1, lam=1)
    with pytest.raises(ParameterError):
        make_distribution("nosuch", a=1)
    with pytest.raises(ParameterError):
        make_distribution("burr_xii", k=1)  # missing c
    with pytest.raises(ParameterError):
        make_distribution("normal", mu=0, sigma2=1, extra=2)


@pytest.mark.parametrize("family, kw, message", [
    ("burr_xii", dict(k=1, c=math.inf), "parameter 'c' must be finite, got inf"),
    ("normal", dict(mu=math.inf, sigma2=1), "parameter 'mu' must be finite, got inf"),
    ("normal", dict(mu=math.nan, sigma2=1), "parameter 'mu' must be finite, got nan"),
    ("gamma", dict(k=math.inf, lam=1), "parameter 'k' must be finite, got inf"),
    ("uniform", dict(right=-math.inf), "parameter 'right' must be finite, got -inf"),
    ("gamma", dict(k=-1, lam=1), "parameter 'k' must be > 0, got -1.0"),
    ("burr_xii", dict(k=1, c=1, sigma=0), "parameter 'sigma' must be > 0, got 0.0"),
    ("uniform", dict(left=1, right=0), "support requires left < right, got [1.0, 0.0]"),
])
def test_parameter_rules(family, kw, message):
    with pytest.raises(ParameterError) as err:
        make_distribution(family, **kw)
    assert str(err.value) == message


def test_laplace_knot_recorded():
    lap = _dist("laplace", dict(mu=2.5, sigma=1))
    assert lap.support.knots == (2.5,)


@pytest.mark.parametrize("family, kw", [("burr_xii", dict(k=1.3, c=1.7)),
                                        ("gamma", dict(k=0.7, lam=2.0)),
                                        ("normal", dict(mu=1.0, sigma2=3.0)),
                                        ("half_normal", {}),
                                        ("half_cauchy", {}),
                                        ("levy", dict(mu=0.5, sigma=2.0))])
def test_sample_rows_bit_equal_to_sample(family, kw):
    # each row is pinned to numpy's own generator for its stream, mapped by
    # the family's transform; at n = 1, 3 and 37 every stream leaves a
    # Philox buffer of four words partly used
    dist = _dist(family, kw)
    transform = dict(half_normal=lambda u: np.abs(special.ndtri(u)),
                     half_cauchy=lambda u: np.abs(np.tan(math.pi * (u - 0.5))),
                     levy=lambda u: 0.5 + 2.0 / special.ndtri(u) ** 2)
    for rows in (1, 2, 40):
        streams = [RngStream(4).child("rep", j) for j in range(1, rows + 1)]
        for n in (1, 3, 37, 100):
            got = sample_rows(dist, n, streams)
            assert got.shape == (rows, n)
            for row, rng in zip(got, streams):
                u = np.clip(rng.generator().random(n), 2.0 ** -53, 1 - 2.0 ** -53)
                assert np.array_equal(row, transform.get(family, lambda u: quantile(dist, u))(u))
            assert np.array_equal(got[-1], sample(dist, n, streams[-1]))


def test_burr_draws_at_an_extreme_fit_overflow_silently():
    # the fit the Burr MLE accepts on data near 1e300: the quantile's expm1
    # overflows in the far tail, to inf and without a RuntimeWarning
    dist = _dist("burr_xii", dict(k=2.8e-6, c=515.0))
    streams = [RngStream(1).child("boot", b) for b in range(20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = sample_rows(dist, 30, streams)
    assert np.isinf(got).any() and not np.isnan(got).any()


@pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0, 3899.0])
def test_gamma_draws_at_a_tiny_shape_are_floored(lam):
    # at k = 0.0109 about 4e-4 of the standard variates lie below the
    # smallest normal double, where the quantile gives 0 or a subnormal; the
    # draw floors the standard variate there, and below lam = 1 the scaled
    # draw too, so no score overflows; it is the quantile elsewhere
    tiny = np.finfo(float).tiny
    dist = _dist("gamma", dict(k=0.0109, lam=lam))
    streams = [RngStream(3).child("boot", b) for b in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = sample_rows(dist, 100, streams)
        s = score(dist, got)
    assert np.isfinite(s).all()
    u = np.array([np.clip(rng.generator().random(100), 2.0 ** -53, 1 - 2.0 ** -53)
                  for rng in streams])
    q = quantile(dist, u)
    floor = max(lam * tiny, tiny)
    assert (q == 0).any() and got.min() == floor
    above = q >= floor
    assert np.array_equal(got[above], q[above])


@pytest.mark.parametrize("k, lam, mu", [(0.0109, 1.0, 0.0), (0.0109, 0.1, 0.0),
                                      (2.0, 1e-20, 1e3)])
def test_shifted_gamma_draws_stay_inside_the_open_support(k, lam, mu):
    # at a tiny shape the standard variate, and below lam = 1 the scaled one,
    # underflows to 0 or a subnormal, as gamma's does, and at a scale far
    # below an ulp of mu the sum rounds to mu: the draw floors all three and
    # is the quantile elsewhere
    tiny = np.finfo(float).tiny
    dist = _dist("shifted_gamma", dict(k=k, lam=lam, mu=mu))
    streams = [RngStream(3).child("boot", b) for b in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = sample_rows(dist, 100, streams)
        s = score(dist, got)
    assert (got - mu >= tiny).all() and np.isfinite(got).all() and np.isfinite(s).all()
    u = np.array([np.clip(rng.generator().random(100), 2.0 ** -53, 1 - 2.0 ** -53)
                  for rng in streams])
    g = special.gammaincinv(k, u)
    kept = (lam * g >= tiny) & (mu + lam * g > mu)
    assert (~kept).any()
    assert np.array_equal(got[kept], quantile(dist, u)[kept])


def test_logistic_matches_expit():
    # the numpy logistic of the Burr score and coefficients against scipy's
    g = np.random.default_rng(5)
    for x in (np.linspace(-800.0, 800.0, 400_001), g.normal(0.0, 5.0, 100_000),
              g.normal(0.0, 300.0, 100_000)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = logistic(x)
        want = special.expit(x)
        assert np.array_equal(got == 0, want == 0)
        nz = want != 0
        assert np.all(np.abs(got[nz] - want[nz]) <= 1e-15 * want[nz])


def test_log1p_exp_matches_logaddexp():
    # the Burr record's and the Burr fit's log(1 + e^z) against numpy's
    z = np.concatenate((np.linspace(-800.0, 800.0, 400_001),
                        [0.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = log1p_exp(z)
    with np.errstate(invalid="ignore"):  # numpy's own warns on nan
        want = np.logaddexp(0.0, z)
    fin = np.isfinite(want)
    assert np.array_equal(got[~fin], want[~fin], equal_nan=True)
    # one subnormal step apart where the value is subnormal, below z = -708
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-15 * want[fin] + 5e-324)


def test_boundary_density_limit_reads_the_record():
    uni = _dist("uniform", dict(left=-1.0, right=3.0))
    assert boundary_density_limit(uni, "left") == boundary_density_limit(uni, "right") == 0.25
    beta = _dist("beta", dict(alpha=2.0, beta=3.0))
    assert boundary_density_limit(beta, "left") == boundary_density_limit(beta, "right") == 0.0
    # p(x) = b (1 - x)^(b - 1) for beta(1, b), and a x^(a - 1) for beta(a, 1)
    assert boundary_density_limit(_dist("beta", dict(alpha=1.0, beta=2.5)), "left") == \
        pytest.approx(2.5, rel=1e-14)
    assert boundary_density_limit(_dist("beta", dict(alpha=2.5, beta=1.0)), "right") == \
        pytest.approx(2.5, rel=1e-14)
    arcsine = _dist("beta", dict(alpha=0.5, beta=0.5))
    assert boundary_density_limit(arcsine, "left") == boundary_density_limit(arcsine, "right") \
        == math.inf
    with pytest.raises(DomainError, match="infinite"):
        boundary_density_limit(_dist("gamma", dict(k=2.0, lam=1.0)), "right")
    with pytest.raises(DomainError, match="no analytic boundary limit"):
        boundary_density_limit(_dist("gamma", dict(k=2.0, lam=1.0)), "left")
    with pytest.raises(ValueError, match="side"):
        boundary_density_limit(uni, "top")


# --------------------------------------------------------------------------
# property-based round trip over random parameters
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    k=st_strat.floats(0.3, 8.0),
    c=st_strat.floats(0.3, 8.0),
    u=st_strat.floats(1e-9, 1 - 1e-9),
)
def test_burr_round_trip_property(k, c, u):
    dist = make_distribution("burr_xii", k=k, c=c)
    assert abs(cdf(dist, quantile(dist, u)) - u) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    kk=st_strat.floats(0.3, 10.0),
    lam=st_strat.floats(0.1, 10.0),
    u=st_strat.floats(1e-9, 1 - 1e-9),
)
def test_gamma_weibull_round_trip_property(kk, lam, u):
    for family in ("gamma", "weibull"):
        dist = make_distribution(family, k=kk, lam=lam)
        assert abs(cdf(dist, quantile(dist, u)) - u) <= 1e-9
