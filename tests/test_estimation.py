import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from steinfit import estimation
from steinfit.distributions import RngStream, make_distribution, sample
from steinfit.estimation import (
    FitError,
    burr_loglik,
    burr_mle,
    burr_mle_rows,
    burr_profile_k,
    gamma_fit,
    moments_rows,
    normal_fit,
)


def draw(family, n, seed, **kw):
    return sample(make_distribution(family, **kw), n, RngStream(seed)).values


# --------------------------------------------------------------------------
# Burr profile MLE
# --------------------------------------------------------------------------

def test_profile_k_hand_value():
    # {1, 1} at c = 1: k(c) = 2 / (2 log 2)
    assert burr_profile_k([1.0, 1.0], 1.0) == pytest.approx(1 / math.log(2), rel=1e-14)


def test_profile_stationarity_identity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = draw("burr_xii", int(rng.integers(5, 60)), int(rng.integers(1 << 30)),
                 k=rng.uniform(0.5, 3), c=rng.uniform(0.5, 3))
        c = float(rng.uniform(0.1, 5.0))
        k = burr_profile_k(x, c)
        # dl/dk = n/k - sum log(1 + x^c) must vanish at the profile point
        resid = x.size / k - np.logaddexp(0.0, c * np.log(x)).sum()
        assert abs(resid) <= 1e-10 * x.size


def test_burr_mle_consistency():
    x = draw("burr_xii", 5000, 421, k=2.0, c=1.0)
    fit = burr_mle(x)
    assert fit.converged
    assert 1.7 <= fit.params["k"] <= 2.3
    assert 0.9 <= fit.params["c"] <= 1.1


def test_burr_mle_beats_grid_oracle():
    rng = np.random.default_rng(99)
    grid = np.linspace(0.1, 10.0, 400)
    for _ in range(20):
        n = int(rng.integers(5, 25))
        x = draw("burr_xii", n, int(rng.integers(1 << 30)),
                 k=rng.uniform(0.5, 4), c=rng.uniform(0.5, 4))
        fit = burr_mle(x)
        logx = np.log(x)
        t_by_c = np.logaddexp(0.0, np.outer(grid, logx)).sum(axis=1)
        kk = grid[:, None]
        cc = grid[None, :]
        ll = (n * np.log(cc) + n * np.log(kk) + (cc - 1) * logx.sum()
              - (kk + 1) * t_by_c[None, :])
        assert fit.loglik >= ll.max() - 1e-6


def _fit_agreement_samples():
    """250 samples, n = 10..200: Burr, Weibull, lognormal (near-constant to
    very wide), Lomax and exponential data."""
    rng = np.random.default_rng(20261018)
    samples = []
    for i in range(250):
        n = int(rng.integers(10, 201))
        kind = i % 5
        if kind == 0:
            x = draw("burr_xii", n, i, k=rng.uniform(0.2, 5), c=rng.uniform(0.2, 8))
        elif kind == 1:
            x = rng.weibull(rng.uniform(0.3, 6), n) * rng.uniform(0.3, 3)
        elif kind == 2:
            x = rng.lognormal(rng.uniform(-1, 1), rng.uniform(0.02, 4), n)
        elif kind == 3:
            x = rng.pareto(rng.uniform(0.3, 6), n) * rng.uniform(0.3, 3)  # Lomax
        else:
            x = rng.exponential(rng.uniform(0.3, 3), n)
        samples.append(x)
    return samples


def _profile(x, u):
    c = math.exp(u)
    return burr_loglik(x, burr_profile_k(x, c), c)


def test_burr_mle_rows_matches_brent_oracle():
    left = 0
    for x in _fit_agreement_samples():
        ref = burr_mle(x)
        k, c, converged = burr_mle_rows(x[None], 1.0)
        if not converged[0]:
            # left to burr_mle only where its maximizer sits at the bracket's edge
            left += 1
            assert not 1e-3 * (1 + 1e-5) < ref.params["c"] < 1e3 * (1 - 1e-5)
            continue
        assert k[0] == burr_profile_k(x, c[0])
        ll = burr_loglik(x, k[0], c[0])
        assert ll >= ref.loglik - 1e-12 * max(1.0, abs(ref.loglik))
        # c: bounded Brent stops once its interval is about sqrt(eps)|log c|
        # wide, so c agrees to 1e-7 relative or to a few of those widths.  On
        # a profile too flat to fix c (curvature below 1e-3 n) only the
        # log-likelihood above is compared.
        u, h = math.log(c[0]), 1e-2
        curvature = abs(_profile(x, u + h) - 2 * ll + _profile(x, u - h)) / h ** 2
        if curvature >= 1e-3 * x.size:
            tol = max(1e-7, 4 * math.sqrt(np.finfo(float).eps) * abs(u))
            assert abs(math.log(ref.params["c"]) - u) <= tol
    assert left <= 5


def test_burr_mle_rows_rows_are_independent_of_the_batch():
    rng = np.random.default_rng(8)
    X = np.array([draw("burr_xii", 60, int(s), k=rng.uniform(0.5, 3), c=rng.uniform(0.5, 4))
                  for s in rng.integers(1 << 30, size=40)])
    k, c, converged = burr_mle_rows(X, 1.5)
    assert converged.all()
    for i in range(X.shape[0]):
        ki, ci, conv_i = burr_mle_rows(X[i:i + 1], 1.5)
        assert (ki[0], ci[0], conv_i[0]) == (k[i], c[i], converged[i])


@pytest.mark.parametrize("c_true, bracket, edge", [(3000.0, None, 1e3),
                                                   (0.03, (0.1, 10.0), 0.1)])
def test_burr_mle_rows_edge_rows_left_unconverged(c_true, bracket, edge, monkeypatch):
    # finite positive data cannot put the maximizer below the default
    # bracket's 1e-3 (that needs |log x| of order 1/c), so the low edge is
    # checked on a narrowed bracket
    if bracket is not None:
        monkeypatch.setattr(estimation, "C_BRACKET", bracket)
    X = np.array([draw("burr_xii", 80, seed, k=1.0, c=c_true) for seed in range(3)])
    _, c, converged = burr_mle_rows(X, 1.0)
    assert not converged.any()
    assert np.allclose(c, edge, rtol=1e-6)


def test_moments_rows_bit_identical_to_fits():
    rng = np.random.default_rng(4)
    X = rng.gamma(0.7, 2.0, size=(30, 57))
    mean, var = moments_rows(X)
    for i, x in enumerate(X):
        g, z = gamma_fit(x), normal_fit(x)
        assert (g.params["k"], g.params["lam"]) == (mean[i] ** 2 / var[i], var[i] / mean[i])
        assert (z.params["mu"], z.params["sigma2"]) == (mean[i], var[i])


def test_burr_mle_widens_its_bracket_past_an_edge():
    # the profile still rises at c = 1e3: bounded Brent stops about 1.5e-7
    # (in log c) short of the bound, which the edge rule must catch
    x = draw("burr_xii", 80, 42, k=1.0, c=3000.0)
    fit = burr_mle(x)
    assert fit.converged
    assert fit.params["c"] == pytest.approx(3330, rel=1e-3)
    assert fit.loglik == pytest.approx(489.19, abs=5e-3)
    assert fit.loglik > _profile(x, math.log(1e3)) + 1.0
    # the widest bracket is 1e-7..1e7; a maximizer past it is reported
    edge = burr_mle(1.0 + 1e-9 * np.arange(30.0))
    assert not edge.converged
    assert edge.params["c"] == pytest.approx(1e7, rel=1e-5)


def _profile_grid_max(x):
    """Maximum of the Burr profile log-likelihood over a fine log-c grid,
    where k(c) = n / sum log(1 + x^c) is finite."""
    logx, n = np.log(x), x.size
    best = -math.inf
    for u in np.linspace(math.log(1e-3), math.log(1e3), 20001):
        t = np.logaddexp(0.0, math.exp(u) * logx).sum()
        if t > n / np.finfo(float).max:
            best = max(best, n * u + n * (math.log(n) - math.log(t))
                       + (math.exp(u) - 1) * logx.sum() - n - t)
    return best


def test_burr_mle_on_underflowing_data():
    # every x^c underflows to 0 for c above about 10 at these scales
    for scale in (1e-30, 1e-100):
        for seed in range(3):
            x = np.random.default_rng(seed).uniform(scale / 100, scale, 50)
            fit = burr_mle(x)
            assert fit.converged and math.isfinite(fit.params["k"])
            assert fit.loglik >= _profile_grid_max(x) - 1e-6
    # here k = n / sum log(1 + x^c) overflows at the profile's maximizer
    for seed in range(3):
        x = np.random.default_rng(seed).uniform(1e-202, 1e-200, 50)
        with pytest.raises(FitError, match="not finite"):
            burr_mle(x)


def test_burr_mle_input_validation():
    with pytest.raises(FitError):
        burr_mle([1.0])
    with pytest.raises(FitError):
        burr_mle([1.0, -2.0])
    with pytest.raises(FitError):
        burr_mle([2.0, 2.0, 2.0])


def test_burr_mle_scale_sensitive():
    # the test family pins sigma = 1, so rescaling the data must move the fit
    x = draw("burr_xii", 500, 5, k=1.0, c=1.0)
    f1 = burr_mle(x)
    f2 = burr_mle(3.0 * x)
    assert abs(f1.params["k"] - f2.params["k"]) + abs(f1.params["c"] - f2.params["c"]) > 1e-3


def test_burr_loglik_matches_catalog():
    from steinfit.distributions import log_likelihood
    x = draw("burr_xii", 50, 6, k=1.3, c=0.8)
    dist = make_distribution("burr_xii", k=1.3, c=0.8)
    assert burr_loglik(x, 1.3, 0.8) == pytest.approx(log_likelihood(dist, x), rel=1e-12)


# --------------------------------------------------------------------------
# gamma and normal estimators
# --------------------------------------------------------------------------

def test_gamma_fit_hand_value():
    fit = gamma_fit([1.0, 3.0])
    assert fit.params["k"] == pytest.approx(4.0, abs=1e-15)
    assert fit.params["lam"] == pytest.approx(0.5, abs=1e-15)


def test_gamma_fit_equivariance_bit_exact_for_binary_scales():
    x = np.array([0.5, 1.0, 2.5, 4.0])
    base = gamma_fit(x)
    for scale in (0.25, 0.5, 2.0, 8.0, 1024.0):
        scaled = gamma_fit(scale * x)
        assert scaled.params["k"] == base.params["k"]
        assert scaled.params["lam"] == scale * base.params["lam"]


@settings(max_examples=40, deadline=None)
@given(scale=hs.floats(0.01, 100.0))
def test_gamma_fit_equivariance_general_scales(scale):
    x = np.array([0.5, 1.0, 2.5, 4.0])
    base = gamma_fit(x)
    scaled = gamma_fit(scale * x)
    assert scaled.params["k"] == pytest.approx(base.params["k"], rel=1e-13)
    assert scaled.params["lam"] == pytest.approx(scale * base.params["lam"], rel=1e-13)


def test_gamma_fit_consistency():
    x = draw("gamma", 5000, 314, k=2.0, lam=3.0)
    fit = gamma_fit(x)
    assert 1.8 <= fit.params["k"] <= 2.2
    assert 2.7 <= fit.params["lam"] <= 3.3


def test_gamma_fit_degenerate():
    with pytest.raises(FitError):
        gamma_fit([2.0, 2.0])


def test_normal_fit_hand_values():
    fit = normal_fit([0.0, 2.0])
    assert fit.params["mu"] == 1.0
    assert fit.params["sigma2"] == 1.0  # divisor n, not n-1


def test_normal_fit_zero_variance_flagged():
    with pytest.raises(FitError, match="zero variance"):
        normal_fit([3.0, 3.0])


def test_normal_standardization_exact():
    x = draw("normal", 200, 777, mu=1.5, sigma2=4.0)
    fit = normal_fit(x)
    y = (x - fit.params["mu"]) / math.sqrt(fit.params["sigma2"])
    assert np.mean(y) == pytest.approx(0.0, abs=1e-13)
    assert np.mean(y * y) == pytest.approx(1.0, abs=1e-13)
