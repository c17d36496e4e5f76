import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import special as sp
from scipy import stats

from steinfit import gof
from steinfit.bootstrap import evaluate_statistic
from steinfit.characterization import empirical_T_min, empirical_T_zero_bias
from steinfit.distributions import (
    RngStream,
    catalog_rows,
    cdf,
    make_distribution,
    quantile,
    sample,
    score,
)
from steinfit.estimation import FitResult, normal_fit
from steinfit.gof import StatisticId


def burr_sample(n, k, c, seed):
    dist = make_distribution("burr_xii", k=k, c=c)
    return sample(dist, n, RngStream(seed))


# --------------------------------------------------------------------------
# Burr statistic: hand values and the oracle chain
# --------------------------------------------------------------------------

def test_burr_B_single_point():
    expected = 2 - 5 / math.e  # integral of t^2 e^{-t} over (0, 1)
    assert gof.burr_B_closed([1.0], 1, 1, 1) == pytest.approx(expected, rel=1e-12)
    assert gof.burr_B_quadrature([1.0], 1, 1, 1) == pytest.approx(expected, rel=1e-12)


def test_burr_B_decreasing_in_a_on_unit_sample():
    vals = [gof.burr_B_closed([1.0], 1, 1, a) for a in (1, 3, 5)]
    oracle = [gof.burr_B_quadrature([1.0], 1, 1, a) for a in (1, 3, 5)]
    np.testing.assert_allclose(vals, oracle, rtol=1e-10)
    assert vals[0] > vals[1] > vals[2]


def test_burr_B_two_point_cross_check():
    x = [1.0, 2.0]
    piecewise = gof.burr_B_quadrature(x, 1, 1, 1)
    adaptive = gof._burr_B_adaptive(x, 1, 1, 1)
    closed = gof.burr_B_closed(x, 1, 1, 1)
    assert piecewise == pytest.approx(adaptive, abs=1e-10)
    assert closed == pytest.approx(piecewise, rel=1e-10)


def test_burr_B_closed_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 51))
        k, c = rng.uniform(0.4, 4, size=2)
        x = burr_sample(n, k, c, int(rng.integers(1 << 30)))
        kh, ch = k * rng.uniform(0.8, 1.2), c * rng.uniform(0.8, 1.2)
        a = float(rng.choice([0.25, 0.5, 1, 3, 5, 10]))
        closed = gof.burr_B_closed(x, kh, ch, a)
        oracle = gof.burr_B_quadrature(x, kh, ch, a)
        assert closed == pytest.approx(oracle, rel=1e-8)


def test_burr_B_matches_mle_fit_instances():
    from steinfit.estimation import burr_mle
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = burr_sample(int(rng.integers(10, 40)), 1, 1, int(rng.integers(1 << 30)))
        fit = burr_mle(x)
        closed = gof.burr_B_closed(x, fit.params["k"], fit.params["c"], 3.0)
        oracle = gof.burr_B_quadrature(x, fit.params["k"], fit.params["c"], 3.0)
        assert closed == pytest.approx(oracle, rel=1e-8)


def _burr_rows(rows, n, seed):
    """Sorted Burr samples of a common size with one (k, c) per row, among
    them wide samples with order statistics below 1e-5."""
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.3, 4.0, rows)
    c = rng.uniform(0.4, 6.0, rows)
    X = np.array([np.sort(burr_sample(n, k[i], c[i], seed + i)) for i in range(rows)])
    return X, k * rng.uniform(0.8, 1.25, rows), c * rng.uniform(0.8, 1.25, rows)


def test_burr_B_rows_match_closed_form_and_oracle():
    X, k, c = _burr_rows(40, 60, 301)
    a_values = [0.25, 1.0, 3.0]
    got = gof.burr_B_rows(X, k, c, a_values)
    for i in range(X.shape[0]):
        for j, a in enumerate(a_values):
            # burr_B_closed is the one-row case, so the same float
            assert got[i, j] == gof.burr_B_closed(X[i], k[i], c[i], a)
            # the closed form itself is within 2.3e-10 of the oracle on these rows
            assert got[i, j] == pytest.approx(gof.burr_B_quadrature(X[i], k[i], c[i], a),
                                              rel=1e-9)
        # a row's values do not depend on the rest of the batch
        assert np.array_equal(gof.burr_B_rows(X[i:i + 1], k[i:i + 1], c[i:i + 1], a_values)[0],
                              got[i])


def test_burr_B_rows_match_adaptive_oracle():
    # burr_B_quadrature shares the incomplete gamma helper with burr_B_rows;
    # black-box adaptive quadrature of the defining integral shares nothing
    X, k, c = _burr_rows(4, 15, 17)
    a_values = [0.25, 1.0, 3.0]
    got = gof.burr_B_rows(X, k, c, a_values)
    for i in range(X.shape[0]):
        for j, a in enumerate(a_values):
            assert got[i, j] == pytest.approx(gof._burr_B_adaptive(X[i], k[i], c[i], a),
                                              rel=1e-9)


def test_burr_B_rows_finite_on_huge_observations():
    # a fit the Burr MLE accepts on data near 1e300: X*X overflows, the
    # statistic does not (and no RuntimeWarning escapes)
    X = np.sort(np.random.default_rng(4).uniform(1.0, 2.0, (3, 30)), axis=1) * 1e300
    got = gof.burr_B_rows(X, [2.8e-6] * 3, [515.0] * 3, [0.25, 1.0, 3.0])
    assert np.isfinite(got).all() and (got >= 0).all()


def test_burr_B_paper_display_verbatim_grouping():
    """The prefix-sum evaluation equals the literal double sum over j < l
    (the bracketed grouping with the (c-2)/a^2 term inside)."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        x = np.sort(burr_sample(n, 1.2, 0.9, int(rng.integers(1 << 30))))
        kh, ch, a = 1.1, 0.95, float(rng.choice([0.5, 1, 3]))
        A1, A2 = gof.burr_coefficients(x, kh, ch)
        e = np.exp(-a * x)
        total = 0.0
        for j in range(n):
            for l in range(j + 1, n):
                total += (2 / n) * (A1[l] * (2 * A1[j] / a ** 3 * (1 - e[j])
                                             + A2[j] / a ** 2 * (e[j] + e[l])
                                             + (ch - 2) / a ** 2 * e[j]
                                             - x[j] / a * e[j])
                                    + A2[j] / a * e[l])
        for j in range(n):
            total += (1 / n) * (A1[j] ** 2 * (-2 * x[j] / a ** 2 * e[j]
                                              - 2 / a ** 3 * e[j] + 2 / a ** 3)
                                + 2 * j * ch / a ** 2 * A1[j] * e[j]
                                + 2 * A2[j] / a * e[j])
        total += 2 * ch / (a * n) * np.sum(np.arange(1, n + 1) * e) - np.sum(e) / (a * n)
        assert gof.burr_B_closed(x, kh, ch, a) == pytest.approx(total, rel=1e-9)


def test_burr_B_continuity_in_a_and_data():
    x = burr_sample(20, 1, 1, 77)
    base = gof.burr_B_closed(x, 1.1, 0.9, 3.0)
    assert gof.burr_B_closed(x, 1.1, 0.9, 3.0 + 1e-7) == pytest.approx(base, rel=1e-5)
    assert gof.burr_B_closed(x + 1e-9, 1.1, 0.9, 3.0) == pytest.approx(base, rel=1e-6)


def test_burr_B_zero_when_T_matches_F():
    # one observation at x with A1(x)*x = 1 makes T == F beyond x and
    # leaves only the (0, x) ramp; shrinking a c(k+1) ratio cannot null that,
    # so instead check the quadrature on a synthetic exact-match grid
    x = np.sort(burr_sample(30, 2, 1.5, 9))
    val = gof.burr_B_quadrature(x, 2.0, 1.5, 3.0)
    assert val >= 0.0


# --------------------------------------------------------------------------
# integer-order incomplete gamma
# --------------------------------------------------------------------------

def _gammainc_123(z):
    z = np.asarray(z, dtype=float)
    return gof._gammainc_123(z, np.exp(-z))


def test_gammainc_123_matches_scipy():
    cut = gof.GAMMAINC_CUT
    z = np.concatenate((np.logspace(-17, 3, 4001), np.linspace(cut - 0.05, cut + 0.05, 2001),
                        [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)]))
    for k, got in enumerate(_gammainc_123(z), start=1):
        np.testing.assert_allclose(got, sp.gammainc(k, z), rtol=1e-13, atol=0)


def test_gammainc_123_leading_term_below_1e_17():
    # P(k, z) = z^k/k! (1 - k z/(k+1) + ...), so below 1e-17 the leading term
    # is the value to double precision; scipy itself strays near z = 1e-84
    z = np.logspace(-300, -17, 2000)
    for k, got in enumerate(_gammainc_123(z), start=1):
        # an absolute allowance of a few subnormal steps where z^k underflows
        np.testing.assert_allclose(got, z ** k / math.factorial(k), rtol=1e-13, atol=2e-323)


def test_gammainc_123_series_is_polyval_bit_for_bit():
    # the in-place Horner loop takes np.polyval's steps in its order
    z = np.concatenate((np.geomspace(1e-300, gof.GAMMAINC_CUT, 20001)[:-1],
                        [np.nextafter(gof.GAMMAINC_CUT, 0.0)]))
    zez = z * np.exp(-z)
    p3 = zez * z * z * np.polyval(gof._P3_SERIES, z)
    p2 = p3 + 0.5 * zez * z
    got = _gammainc_123(z)
    for g, want in zip(got, (p2 + zez, p2, p3)):
        assert g.tobytes() == want.tobytes()


def test_gammainc_123_limits():
    assert [p.tolist() for p in _gammainc_123([0.0])] == [[0.0]] * 3
    big = [50.0, 1e3, 1e300, 1.7e308]
    assert [p.tolist() for p in _gammainc_123(big)] == [[1.0] * 4] * 3


# --------------------------------------------------------------------------
# generic weighted-L2 statistic
# --------------------------------------------------------------------------

def test_generic_L2_zero_for_identical_functions():
    x = np.array([0.5, 1.0, 2.0])
    # n*T_n = n*F_n = i + 1 on the piece that starts at x_(i+1)
    count = np.arange(1.0, x.size + 1)
    assert gof.generic_L2(x, count - count, np.zeros(x.size), 1.0, x.size) == pytest.approx(
        0.0, abs=1e-12)


def test_generic_L2_gamma_geometry():
    # gamma operator with k=1 on a unit sample reproduces the Burr ramp case:
    # T_n(t) = min(1, t)
    pieces = gof.min_pieces([1.0], [1.0])
    assert gof.generic_L2(*pieces, 1.0, 1) == pytest.approx(2 - 5 / math.e, rel=1e-9)


def test_generic_L2_linear_in_n_for_replicated_deviation():
    x1 = np.array([1.0])
    x3 = np.array([1.0, 1.0, 1.0])
    # T_n(t) = min(1, t) for both samples
    v1 = gof.generic_L2(*gof.min_pieces(x1, np.ones(1)), 1.0, 1)
    v3 = gof.generic_L2(*gof.min_pieces(x3, np.ones(3)), 1.0, 3)
    assert v3 == pytest.approx(3 * v1, rel=1e-9)


def _edf(y):
    y = np.sort(y)
    return lambda t: np.searchsorted(y, t, side="right") / y.size


def _gamma_L2_adaptive(x, fit, a):
    y = x / fit.params["lam"]
    unit = make_distribution("gamma", k=fit.params["k"], lam=1.0)
    F = _edf(y)
    deviation = lambda t: empirical_T_min(y, lambda v: score(unit, v), t, 0.0) - F(t)
    return gof._L2_adaptive(deviation, y, a, 0.0)


def _normal_L2_adaptive(x, fit, a):
    y = (x - fit.params["mu"]) / math.sqrt(fit.params["sigma2"])
    F = _edf(y)
    deviation = lambda t: empirical_T_zero_bias(y, t, 1.0) - F(t)
    return gof._L2_adaptive(deviation, y, a, float(y.min()))


def test_generic_L2_gamma_and_normal_match_adaptive_oracle():
    rng = np.random.default_rng(2019)
    for _ in range(12):
        n = int(rng.integers(1, 31))
        a = float(rng.choice([0.25, 0.5, 1, 3]))
        seed = int(rng.integers(1 << 30))
        k = float(rng.uniform(0.3, 5.0))
        g = sample(make_distribution("gamma", k=k, lam=float(rng.uniform(0.5, 2))), n,
                   RngStream(seed))
        fit = FitResult(params={"k": k * rng.uniform(0.8, 1.2), "lam": float(np.mean(g) / k)})
        exact = evaluate_statistic("gamma", StatisticId("generic_L2", a=a), g, fit)
        assert exact == pytest.approx(_gamma_L2_adaptive(g, fit, a), rel=1e-9)

        z = sample(make_distribution("normal", mu=0.3, sigma2=2.0), max(n, 2),
                   RngStream(seed))
        fit = normal_fit(z)
        exact = evaluate_statistic("normal", StatisticId("generic_L2", a=a), z, fit)
        assert exact == pytest.approx(_normal_L2_adaptive(z, fit, a), rel=1e-9)


def test_generic_L2_rows_match_adaptive_oracle_row_by_row():
    # one matrix of gamma rows and one of normal rows, a different fit per
    # row, through the row piece builders and one generic_L2_rows call each
    rng = np.random.default_rng(2024)
    n, a = 25, 0.5
    G = np.sort(rng.gamma(rng.uniform(0.5, 4.0, (6, 1)), size=(6, n)), axis=1)
    k, lam = rng.uniform(0.5, 4.0, 6), rng.uniform(0.5, 2.0, 6)
    Y = G / lam[:, None]
    s = catalog_rows("gamma", "score", {"k": k[:, None], "lam": 1.0}, Y)
    got = gof.generic_L2_rows(*gof.min_pieces_rows(Y, -s), a, n)
    for r in range(6):
        fit = FitResult(params={"k": k[r], "lam": lam[r]})
        assert got[r] == pytest.approx(_gamma_L2_adaptive(G[r], fit, a), rel=1e-9)

    Z = np.sort(rng.normal(rng.uniform(-1, 1, (6, 1)), 1.5, size=(6, n)), axis=1)
    mu, sigma2 = rng.uniform(-1, 1, 6), rng.uniform(0.5, 3.0, 6)
    Y = (Z - mu[:, None]) / np.sqrt(sigma2)[:, None]
    got = gof.generic_L2_rows(*gof.real_line_pieces_rows(Y, -Y), a, n)
    for r in range(6):
        fit = FitResult(params={"mu": mu[r], "sigma2": sigma2[r]})
        assert got[r] == pytest.approx(_normal_L2_adaptive(Z[r], fit, a), rel=1e-9)


def test_generic_L2_finite_on_tiny_observations():
    # slopes near 1e300 on pieces near 1e-300 long: squaring the slope
    # overflows, integrating from the end values does not
    y = np.array([1e-300, 3e-200, 1e-120, 1e-30, 0.02, 0.5, 2, 7])
    fit = FitResult(params={"k": 0.02, "lam": 1.0})
    quadrature = {0.5: 5.795605925528205, 1.0: 1.3654080138890667, 3.0: 0.11854159119654206}
    for a, want in quadrature.items():
        got = evaluate_statistic("gamma", StatisticId("generic_L2", a=a), y, fit)
        assert math.isfinite(got)
        assert got == pytest.approx(_gamma_L2_adaptive(y, fit, a), rel=1e-9)
        assert got == pytest.approx(want, rel=1e-9)
    y[0] = 0.0
    with pytest.raises(ValueError):
        gof.min_pieces(y, np.ones(y.size))
    with pytest.raises(ValueError):
        evaluate_statistic("gamma", StatisticId("generic_L2", a=1.0), y, fit)


def test_piece_builders_reject_non_finite_data():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            gof.min_pieces([1.0, bad], [1.0, 1.0])
        with pytest.raises(ValueError):
            gof.real_line_pieces([-1.0, bad], [1.0, 1.0])
    with pytest.raises(ValueError):
        gof.min_pieces([1.0, -2.0], [1.0, 1.0])
    # the builders take sorted input; unsorted input is refused, not mis-integrated
    with pytest.raises(ValueError, match="sorted"):
        gof.min_pieces([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="sorted"):
        gof.real_line_pieces([1.0, -1.0], [1.0, 1.0])


def test_generic_L2_burr_route_equals_B():
    x = burr_sample(40, 1.3, 2.0, 8)
    fit = FitResult(params={"k": 1.2, "c": 1.8})
    for a in (0.25, 1.0, 3.0):
        l2 = evaluate_statistic("burr", StatisticId("generic_L2", a=a), x, fit)
        assert l2 == pytest.approx(gof.burr_B_closed(x, 1.2, 1.8, a), rel=1e-10)


# --------------------------------------------------------------------------
# classical statistics: golden hand values
# --------------------------------------------------------------------------

IDENTITY = lambda x: np.asarray(x, dtype=float)


def test_ks_hand_values():
    assert gof.ks([0.25, 0.75], IDENTITY) == pytest.approx(0.25, abs=1e-15)
    assert gof.ks([0.3], lambda x: np.full_like(np.asarray(x, float), 0.5)) == pytest.approx(0.5)
    n = 5
    grid = (np.arange(1, n + 1)) / n
    assert gof.ks(grid, IDENTITY) == pytest.approx(1 / n, abs=1e-15)


def test_cvm_hand_values():
    half = lambda x: np.full_like(np.asarray(x, float), 0.5)
    assert gof.cvm([0.3], half) == pytest.approx(1 / 12, abs=1e-15)
    assert gof.cvm([0.25, 0.75], IDENTITY) == pytest.approx(1 / 24, abs=1e-15)
    n = 4
    z = (2 * np.arange(1, n + 1) - 1) / (2 * n)
    assert gof.cvm(z, IDENTITY) == pytest.approx(1 / (12 * n), abs=1e-15)


def test_ad_hand_values():
    half = lambda x: np.full_like(np.asarray(x, float), 0.5)
    assert gof.ad([0.3], half) == pytest.approx(2 * math.log(2) - 1, abs=1e-14)
    expected = -2 - 0.5 * (2 * math.log(0.25) + 6 * math.log(0.75))
    assert gof.ad([0.25, 0.75], IDENTITY) == pytest.approx(expected, abs=1e-14)


def test_ad_clamps_at_boundary():
    bad = lambda x: np.where(np.asarray(x) < 0.5, 0.0, 1.0)
    with pytest.warns(RuntimeWarning):
        val = gof.ad([0.25, 0.75], bad)
    assert math.isfinite(val) and val > 10


def test_watson_hand_values():
    half = lambda x: np.full_like(np.asarray(x, float), 0.5)
    assert gof.watson([0.3], half) == pytest.approx(1 / 12, abs=1e-15)
    assert gof.watson([0.25, 0.75], IDENTITY) == pytest.approx(1 / 24, abs=1e-15)


def test_watson_evaluates_the_fitted_cdf_once():
    calls = []

    def F(x):
        calls.append(1)
        return np.clip(np.asarray(x, float) + 0.1, 0, 1)

    x = np.linspace(0.05, 0.55, 10)
    expected = gof.cvm(x, F) - x.size * (np.mean(F(np.sort(x))) - 0.5) ** 2
    calls.clear()
    assert gof.watson(x, F) == expected
    assert len(calls) == 1


def test_edf_rows_match_scalar_statistics():
    X, k, c = _burr_rows(30, 50, 401)
    laws = [make_distribution("burr_xii", k=k[i], c=c[i]) for i in range(X.shape[0])]
    Z = np.array([cdf(law, x) for law, x in zip(laws, X)])
    got = gof.edf_rows(Z, gof.EDF_TAGS)
    for i, law in enumerate(laws):
        F = lambda v: cdf(law, v)
        for tag, scalar in [("ks", gof.ks), ("cvm", gof.cvm), ("ad", gof.ad),
                            ("watson", gof.watson)]:
            assert got[tag][i] == pytest.approx(scalar(X[i], F), rel=1e-13)
        row = gof.edf_rows(Z[i:i + 1], gof.EDF_TAGS)
        assert all(np.array_equal(row[tag][0], got[tag][i]) for tag in gof.EDF_TAGS)


def test_edf_rows_match_scipy_oracle():
    # KS and CvM against scipy's independent implementations, at the same F
    rng = np.random.default_rng(8)
    for n in (2, 3, 10, 57):
        X = np.sort(rng.gamma(2.0, 1.0, (20, n)), axis=1)
        laws = [make_distribution("gamma", k=k, lam=lam)
                for k, lam in zip(rng.uniform(0.3, 4.0, 20), rng.uniform(0.5, 2.0, 20))]
        got = gof.edf_rows([cdf(law, x) for law, x in zip(laws, X)], ("ks", "cvm"))
        for i, law in enumerate(laws):
            F = lambda v: cdf(law, v)
            assert got["ks"][i] == pytest.approx(stats.kstest(X[i], F).statistic, rel=1e-12)
            assert got["cvm"][i] == pytest.approx(stats.cramervonmises(X[i], F).statistic,
                                                  rel=1e-12)


def test_edf_rows_ad_clamps_with_a_warning():
    Z = np.array([[0.2, 0.4, 0.6, 0.8], [0.0, 0.3, 0.6, 1.0]])
    with pytest.warns(RuntimeWarning):
        got = gof.edf_rows(Z, ("ad",))["ad"]
    bad = lambda x: np.asarray([0.0, 0.3, 0.6, 1.0])
    with pytest.warns(RuntimeWarning):
        assert got[1] == pytest.approx(gof.ad([1.0, 2.0, 3.0, 4.0], bad), rel=1e-13)
    assert np.all(np.isfinite(got))


def test_watson_below_cvm_for_shifted_cdf():
    # mean(F(X_(j))) != 1/2 makes the rotation term strictly positive
    shift = lambda x: np.clip(np.asarray(x, float) + 0.1, 0, 1)
    x = np.linspace(0.05, 0.55, 10)
    assert gof.watson(x, shift) < gof.cvm(x, shift)


def test_ad_lower_bound():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        z = np.sort(rng.uniform(size=n))
        assert gof.ad(z, IDENTITY) >= -n


# --------------------------------------------------------------------------
# invariances
# --------------------------------------------------------------------------

def test_probability_integral_transform_invariance():
    dist = make_distribution("weibull", k=1.7, lam=0.8)
    x = sample(dist, 40, RngStream(12))
    from steinfit.distributions import cdf as dist_cdf
    F = lambda v: dist_cdf(dist, v)
    z = F(x)
    for stat in (gof.ks, gof.cvm, gof.ad, gof.watson):
        assert stat(x, F) == pytest.approx(stat(z, IDENTITY), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(hs.permutations(list(range(12))))
def test_permutation_invariance(perm):
    x = burr_sample(12, 1.5, 1.2, 31)
    shuffled = x[np.asarray(perm)]
    assert gof.burr_B_closed(shuffled, 1.2, 1.1, 3.0) == pytest.approx(
        gof.burr_B_closed(x, 1.2, 1.1, 3.0), rel=1e-12)
    assert gof.ks(shuffled, IDENTITY) == gof.ks(x, IDENTITY)
    assert gof.cvm(shuffled, IDENTITY) == gof.cvm(x, IDENTITY)


def test_partition_independent_summation():
    # evaluating the pair block in two halves must agree with one pass
    x = burr_sample(50, 1, 1, 55)
    full = gof.burr_B_closed(x, 1.05, 0.95, 1.0)
    again = gof.burr_B_closed(np.array(x, dtype=float, copy=True), 1.05, 0.95, 1.0)
    assert full == again


def test_statistic_id_validation():
    with pytest.raises(ValueError):
        gof.StatisticId("burr_B")  # missing a
    with pytest.raises(ValueError):
        gof.StatisticId("ks", a=1.0)
    # the weight must be a real number whose cube is positive and finite:
    # the statistics divide by a**3, which overflows past about 5.6e102
    # (a float power raises) and underflows to 0 below about 1.7e-108
    for tag in ("burr_B", "generic_L2"):
        for bad in (math.inf, 1e300, 1e103, 1e-120, "1", True):
            with pytest.raises(ValueError):
                gof.StatisticId(tag, a=bad)
        for good in (1e102, 1e-100, 2, np.float64(0.5)):
            assert gof.StatisticId(tag, a=good).a == good
    assert gof.StatisticId("burr_B", a=0.25).label == "B_0.25"
    assert gof.StatisticId("burr_B", a=3.0).label == "B_3"
    assert gof.StatisticId("ks").label == "KS"
