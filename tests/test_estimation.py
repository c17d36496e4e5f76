import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from steinfit import estimation
from steinfit.distributions import RngStream, log_likelihood, make_distribution, sample
from steinfit.estimation import (
    FitError,
    FitResult,
    burr_mle,
    burr_mle_rows,
    burr_profile_k,
    gamma_fit,
    gamma_fit_rows,
    moments_rows,
    normal_fit,
    normal_fit_rows,
)


def draw(family, n, seed, **kw):
    return sample(make_distribution(family, **kw), n, RngStream(seed))


def burr_loglik(x, k, c):
    """The catalog log-likelihood of Burr XII(k, c) at scale 1."""
    return log_likelihood(make_distribution("burr_xii", k=k, c=c), x)


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


# --------------------------------------------------------------------------
# The Brent oracle: bounded Brent search on the profile, the estimator that
# burr_mle was before the Newton row solver fitted every sample
# --------------------------------------------------------------------------

def _neg_profile(x):
    """The oracle's objective: minus the profile log-likelihood in u = log c."""
    logx, n = np.log(x), x.size

    def f(u):
        c = math.exp(u)
        t = np.logaddexp(0.0, c * logx).sum()
        if t == 0.0:  # every x^c underflows: k(c) = n/t is not finite
            return math.inf
        # l(k(c), c) with k(c) = n/t, using k(c)*t = n
        return -(n * u + n * (math.log(n) - math.log(t)) + (c - 1) * logx.sum() - n - t)
    return f


# the oracle's first bracket for c, and how often it widens that tenfold per
# side (to burr_mle's one bracket, 1e-7..1e7)
BRENT_BRACKET = (1e-3, 1e3)
BRENT_EXPANSIONS = 4


def _brent_mle(s, search=None):
    """Maximizes the profile over log c by bounded Brent search on
    log(BRENT_BRACKET); the bracket expands tenfold per side, at most
    BRENT_EXPANSIONS times, when the maximizer lands within ROWS_EDGE_TOL of
    an edge, and an edge hit after the final expansion is reported as
    non-convergence.  Raises FitError where burr_mle does."""
    search = search or _bounded_brent
    x = np.asarray(s, dtype=float)
    if x.size < 2:
        raise FitError("burr_mle needs at least 2 observations")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise FitError("burr_mle needs positive, finite observations")
    if np.all(x == x[0]):
        raise FitError("degenerate sample: all observations equal")
    lo, hi = (math.log(b) for b in BRENT_BRACKET)
    nfev = 0
    for _ in range(BRENT_EXPANSIONS + 1):
        # a +inf profile makes Brent's parabolic step nan; golden section is taken
        with np.errstate(invalid="ignore"):
            lc_hat, calls, success = search(_neg_profile(x), lo, hi, xatol=1e-10, maxiter=500)
        nfev += calls
        edge = min(lc_hat - lo, hi - lc_hat) < estimation.ROWS_EDGE_TOL
        if not edge:
            break
        lo -= math.log(10.0)
        hi += math.log(10.0)
    c_hat = math.exp(lc_hat)
    with np.errstate(divide="ignore", over="ignore"):
        k_hat = burr_profile_k(x, c_hat)
    if not math.isfinite(k_hat):
        raise FitError(f"Burr k = n / sum log(1 + x^c) is not finite at c = {c_hat:.6g}")
    return FitResult(params={"k": k_hat, "c": c_hat}, converged=success and not edge,
                     loglik=burr_loglik(x, k_hat, c_hat), iterations=nfev)


def _bounded_brent(func, x1: float, x2: float, xatol: float, maxiter: int):
    """Minimize func on [x1, x2] by Brent's bounded method: golden-section
    steps with parabolic interpolation.  Returns (x, nfev, success); success
    is False when maxiter evaluations run out or a value is nan.
    """
    # The loop of scipy's _minimize_scalar_bounded (scipy/optimize/_optimize.py,
    # BSD-3-Clause), step for step and with its numpy scalar arithmetic, so
    # every iterate has the bits of minimize_scalar(method="bounded").
    flag = 0
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    return xf, num, flag == 0


def test_burr_mle_rows_matches_brent_oracle():
    left = 0
    for x in _fit_agreement_samples():
        ref = _brent_mle(x)
        k, c, converged = burr_mle_rows(x[None], 1.0)
        if not converged[0]:
            # unconverged only where the maximizer lies past the widest bracket
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


def _scipy_bounded(f, lo, hi, xatol, maxiter):
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    return res.x, res.nfev, res.success


def _brent_cases():
    bracket = (math.log(1e-3), math.log(1e3))
    rng = np.random.default_rng(5)
    for i in range(8):  # ordinary Burr profiles
        x = draw("burr_xii", int(rng.integers(5, 200)), i,
                 k=rng.uniform(0.3, 4), c=rng.uniform(0.3, 6))
        yield pytest.param(_neg_profile(x), bracket, 500, True, id=f"burr{i}")
    # +inf above c of about 10, where every x^c underflows
    x = rng.uniform(1e-32, 1e-30, 50)
    yield pytest.param(_neg_profile(x), bracket, 500, True, id="underflow")
    # the profile still rises at c = 1e3: the minimizer is on the bracket's edge
    x = draw("burr_xii", 80, 42, k=1.0, c=3000.0)
    yield pytest.param(_neg_profile(x), bracket, 500, True, id="edge")
    x = draw("burr_xii", 100, 7, k=2.0, c=1.5)
    yield pytest.param(_neg_profile(x), bracket, 6, False, id="maxiter")
    yield pytest.param(lambda u: math.nan, bracket, 500, False, id="nan_everywhere")
    # the search runs into the nan half and ends on a nan value
    yield pytest.param(lambda u: math.nan if u < 0.0 else u, (-3.0, 4.0), 500, False,
                       id="nan_left")


@pytest.mark.parametrize("f, bracket, maxiter, success", _brent_cases())
def test_bounded_brent_is_scipys_bit_for_bit(f, bracket, maxiter, success):
    with np.errstate(invalid="ignore"):
        ours = _bounded_brent(f, *bracket, xatol=1e-10, maxiter=maxiter)
        ref = _scipy_bounded(f, *bracket, xatol=1e-10, maxiter=maxiter)
    assert np.float64(ours[0]).tobytes() == np.float64(ref[0]).tobytes()
    assert ours[1:] == ref[1:]
    assert ours[2] is success


def _pin_samples():
    """200 samples, n = 2..200: Burr draws, spreads up to 10^+-200,
    near-constant samples, values near 1e300 and samples just above 1, whose
    maximizer lies past the first bracket (often past the widest)."""
    rng = np.random.default_rng(20261019)
    for i in range(200):
        n = int(rng.integers(2, 201))
        kind = i % 5
        if kind == 0:
            yield draw("burr_xii", n, i, k=rng.uniform(0.2, 5), c=rng.uniform(0.2, 8))
        elif kind == 1:
            logx = rng.uniform(-460, 460) + rng.uniform(0.1, 200) * rng.standard_normal(n)
            yield np.exp(np.clip(logx, -700, 700))
        elif kind == 2:
            yield rng.uniform(0.1, 10) * (1.0 + 10.0 ** -rng.uniform(6, 14) * rng.random(n))
        elif kind == 3:
            yield rng.uniform(1e299, 1e300, n) * rng.uniform(0.001, 1.0)
        else:
            yield 1.0 + 10.0 ** -rng.uniform(2, 9) * rng.random(n)


def _fit_or_error(fit, x):
    try:
        return fit(x)
    except FitError as exc:
        return str(exc)


def test_burr_mle_is_unchanged_from_scipys_bounded_brent():
    # the Brent oracle, run with the port above and with scipy's own loop
    samples = list(_pin_samples())
    ours = [_fit_or_error(_brent_mle, x) for x in samples]
    ref = [_fit_or_error(lambda x: _brent_mle(x, _scipy_bounded), x) for x in samples]
    assert [fit if isinstance(fit, str) else fit.to_dict() for fit in ours] == \
        [fit if isinstance(fit, str) else fit.to_dict() for fit in ref]
    assert sum(isinstance(fit, FitResult) for fit in ours) >= 150


def _desk_samples(per_alternative):
    """Samples of n = 100 from each alternative of the desk power table."""
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "table_n100_desk.json"
    for j, alt in enumerate(json.loads(config.read_text())["alternatives"]):
        law = make_distribution(alt["family"], **alt["params"])
        for i in range(per_alternative):
            yield sample(law, 100, RngStream(1000 * j + i))


def test_burr_mle_meets_the_brent_oracle():
    # on every pinned sample and 300 of each desk alternative: the same
    # FitError, or a fit whose log-likelihood is at least the oracle's.  A
    # sample whose maximizer lies past the first bracket converges or fails
    # as the oracle does, with c within 1e-7 relative where both converge,
    # unless its profile is too flat to fix c (curvature below 1e-3 n)
    samples = list(_fit_agreement_samples()) + list(_pin_samples()) + list(_desk_samples(300))
    widened = 0
    for x in samples:
        ref, fit = _fit_or_error(_brent_mle, x), _fit_or_error(burr_mle, x)
        if isinstance(ref, str) or isinstance(fit, str):
            # "... not finite at c = ...": on such a flat profile c differs
            assert isinstance(fit, str) and isinstance(ref, str)
            assert fit.split(" at c =")[0] == ref.split(" at c =")[0]
            continue
        assert fit.loglik >= ref.loglik - 1e-12 * abs(ref.loglik)
        if 1e-3 < ref.params["c"] < 1e3:
            continue
        widened += 1
        u, h = math.log(fit.params["c"]), 1e-2
        curvature = abs(_profile(x, u + h) - 2 * fit.loglik + _profile(x, u - h)) / h ** 2
        if curvature >= 1e-3 * x.size:
            assert fit.converged == ref.converged
            if fit.converged:
                assert fit.params["c"] == pytest.approx(ref.params["c"], rel=1e-7)
    assert widened >= 30


def test_burr_mle_rows_rows_are_independent_of_the_batch():
    rng = np.random.default_rng(8)
    X = np.array([draw("burr_xii", 60, int(s), k=rng.uniform(0.5, 3), c=rng.uniform(0.5, 4))
                  for s in rng.integers(1 << 30, size=40)])
    k, c, converged = burr_mle_rows(X, 1.5)
    assert converged.all()
    for i in range(X.shape[0]):
        ki, ci, conv_i = burr_mle_rows(X[i:i + 1], 1.5)
        assert (ki[0], ci[0], conv_i[0]) == (k[i], c[i], converged[i])


@pytest.mark.parametrize("c_true, bracket, edge", [(3000.0, (1e-3, 1e3), 1e3),
                                                   (0.03, (0.1, 10.0), 0.1)])
def test_burr_mle_rows_edge_rows_left_unconverged(c_true, bracket, edge, monkeypatch):
    # finite positive data cannot put the maximizer below 1e-3 (that needs
    # |log x| of order 1/c), so the low edge is checked on a narrowed bracket
    X = np.array([draw("burr_xii", 80, seed, k=1.0, c=c_true) for seed in range(3)])
    # on a narrowed bracket, rows on its edge are not converged
    with monkeypatch.context() as m:
        m.setattr(estimation, "C_BRACKET", bracket)
        _, c, converged = burr_mle_rows(X, 1.0)
    assert not converged.any()
    assert np.allclose(c, edge, rtol=1e-6)
    # on the default bracket they converge where the Brent oracle does
    _, c, converged = burr_mle_rows(X, 1.0)
    assert converged.all()
    for x, c_row in zip(X, c):
        ref = _brent_mle(x)
        assert ref.converged and not bracket[0] < ref.params["c"] < bracket[1]
        assert c_row == pytest.approx(ref.params["c"], rel=1e-7)


def _any_rows():
    """Rows a row fit must take: ordinary draws; a Burr maximizer past c =
    1e3 and a near-constant row whose maximizer lies past 1e7; a 0, a
    negative value, inf, -inf or nan; a constant row; moments that overflow
    (mean, variance), and finite moments with a gamma shape that overflows."""
    base = draw("burr_xii", 30, 41, k=1.0, c=2.0)
    rng = np.random.default_rng(9)
    bad = [np.where(base == base.max(), v, base)
           for v in (0.0, -1.0, math.inf, -math.inf, math.nan)]
    return np.array([base, draw("burr_xii", 30, 42, k=1.0, c=3000.0), 1.0 + 1e-9 * np.arange(30.0),
                     *bad, np.full(30, 2.0), rng.uniform(1, 2, 30) * 1e300,
                     rng.uniform(-2, 2, 30) * 1e200, rng.uniform(1, 1.01, 30) * 2e154,
                     rng.uniform(-2, 2, 30)])


@pytest.mark.parametrize("rows, scalar, fitted", [
    (lambda X: burr_mle_rows(X, 1.0), burr_mle, [0, 1, 9, 11]),
    (gamma_fit_rows, gamma_fit, [0, 1, 2]),
    (normal_fit_rows, normal_fit, [0, 1, 2, 3, 4, 11, 12]),
], ids=["burr", "gamma", "normal"])
def test_row_fits_refuse_exactly_the_rows_their_scalar_fit_does(rows, scalar, fitted):
    # a row is refused where the scalar fit raises FitError, with NaN
    # parameters, or does not converge; every other row has the scalar
    # fit's parameters and those of its one-row fit, bit for bit; no
    # RuntimeWarning is raised
    X = _any_rows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *params, ok = rows(X)
        assert np.flatnonzero(ok).tolist() == fitted
        for i, x in enumerate(X):
            try:
                fit = scalar(x)
            except FitError:
                assert not ok[i] and np.isnan([p[i] for p in params]).all()
                continue
            assert ok[i] == fit.converged
            assert [p[i] for p in params] == list(fit.params.values())
            *one, _ = rows(X[i:i + 1])
            assert [p[0] for p in one] == list(fit.params.values())


def test_moments_rows_bit_identical_to_fits():
    rng = np.random.default_rng(4)
    X = rng.gamma(0.7, 2.0, size=(30, 57))
    mean, var = moments_rows(X)
    for i, x in enumerate(X):
        g, z = gamma_fit(x), normal_fit(x)
        assert (g.params["k"], g.params["lam"]) == (mean[i] ** 2 / var[i], var[i] / mean[i])
        assert (z.params["mu"], z.params["sigma2"]) == (mean[i], var[i])


def test_one_sample_moments_are_the_one_row_case_bit_for_bit():
    # _moments reads moments_rows on one row; the row reduction gives the
    # bits of the one-dimensional mean and centred mean square
    rng = np.random.default_rng(22)
    for n in rng.integers(2, 4098, 1600):
        x = rng.gamma(rng.uniform(0.2, 5.0), rng.uniform(0.1, 10.0), n) - rng.uniform(0, 3)
        mean = float(np.mean(x))
        assert estimation._moments(x) == (mean, float(np.mean((x - mean) ** 2)))


def test_burr_mle_fits_a_maximizer_past_c_1e3():
    # the profile still rises at c = 1e3, the end of the Brent oracle's
    # first bracket; the Newton iteration starts on the whole bracket and
    # reaches the maximizer in a few steps
    x = draw("burr_xii", 80, 42, k=1.0, c=3000.0)
    fit = burr_mle(x)
    assert fit.converged
    assert fit.params["c"] == pytest.approx(3330.282254289956, rel=1e-12)
    assert fit.iterations <= 10
    assert fit.loglik == pytest.approx(489.19, abs=5e-3)
    assert fit.loglik > _profile(x, math.log(1e3)) + 1.0
    # the bracket is 1e-7..1e7; a maximizer past it is reported
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


@pytest.mark.parametrize("law", ["burr_xii", "gamma", "normal"])
def test_fit_loglik_is_the_catalog_loglik(law):
    # every scalar fit reports the catalog log-likelihood of its fitted law
    fit = {"burr_xii": burr_mle, "gamma": gamma_fit, "normal": normal_fit}[law]
    rng = np.random.default_rng(31)
    for i in range(200):
        n = int(rng.integers(2, 120))
        if law == "normal":
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), n)
        elif law == "burr_xii":
            x = draw("burr_xii", n, i, k=rng.uniform(0.3, 4), c=rng.uniform(0.3, 4))
        else:
            x = rng.lognormal(rng.uniform(-2, 2), rng.uniform(0.05, 3), n)
        result = fit(x)
        assert result.loglik == log_likelihood(make_distribution(law, **result.params), x), i


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


def test_moment_fits_name_an_overflowing_mean_or_variance():
    # the squares overflow; no RuntimeWarning (an error in this suite), and
    # no fit with an infinite variance reported as converged
    rng = np.random.default_rng(3)
    with pytest.raises(FitError, match="overflows"):
        normal_fit(rng.uniform(-2, 2, 30) * 1e200)
    with pytest.raises(FitError, match="overflows"):
        gamma_fit(rng.uniform(1, 2, 30) * 1e300)


def test_normal_standardization_exact():
    x = draw("normal", 200, 777, mu=1.5, sigma2=4.0)
    fit = normal_fit(x)
    y = (x - fit.params["mu"]) / math.sqrt(fit.params["sigma2"])
    assert np.mean(y) == pytest.approx(0.0, abs=1e-13)
    assert np.mean(y * y) == pytest.approx(1.0, abs=1e-13)
