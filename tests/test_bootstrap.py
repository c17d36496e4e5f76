import dataclasses
import math

import numpy as np
import pytest

from steinfit.bootstrap import (
    _FAMILIES,
    FAMILIES,
    BootstrapError,
    bootstrap_replicates,
    bootstrap_test,
    critical_rank,
    evaluate_statistic,
    fit_family_retry,
    fitted_distribution,
    replicate_statistics,
)
from steinfit.characterization import default_operator
from steinfit.distributions import RngStream, make_distribution, sample
from steinfit.estimation import FitError
from steinfit.gof import StatisticId, burr_B_quadrature


def burr_data(n=100, k=1.0, c=1.0, seed=42):
    return sample(make_distribution("burr_xii", k=k, c=c), n, RngStream(seed)).values


def test_critical_rank_matches_procedure():
    assert critical_rank(100, 0.1) == 90
    assert critical_rank(100, 0.05) == 95
    assert critical_rank(50, 0.1) == 45
    assert critical_rank(99, 0.1) == 90  # ceil(89.1)


def test_bootstrap_deterministic_bit_for_bit():
    x = burr_data()
    stat = StatisticId("burr_B", a=3.0)
    o1 = bootstrap_test(x, "burr", stat, B=100, alpha=0.1, rng=RngStream(7, 1))
    o2 = bootstrap_test(x, "burr", stat, B=100, alpha=0.1, rng=RngStream(7, 1))
    assert o1.to_dict() == o2.to_dict()
    assert o1.statistic_value == o2.statistic_value  # bit-for-bit
    o3 = bootstrap_test(x, "burr", stat, B=100, alpha=0.1, rng=RngStream(7, 2))
    assert o3.critical_value != o1.critical_value


def test_reject_consistent_with_critical_value():
    x = burr_data(seed=3)
    out = bootstrap_test(x, "burr", StatisticId("cvm"), B=40, alpha=0.1, rng=RngStream(5))
    assert out.reject == (out.statistic_value > out.critical_value)
    assert 0.0 < out.p_value <= 1.0


def test_degenerate_constant_statistic_never_rejects():
    # strict inequality: a statistic that ties its own bootstrap replicas
    # cannot exceed the critical value
    class ConstStat:
        label = "const"
        tag = "const"

    x = burr_data(n=30, seed=9)
    import steinfit.bootstrap as bs
    orig = bs.evaluate_statistic, bs.replicate_statistics
    try:
        bs.evaluate_statistic = lambda family, stat, data, fit: 1.0
        bs.replicate_statistics = lambda family, stats, X, params: np.ones((len(X), len(stats)))
        out = bs.bootstrap_test(x, "burr", StatisticId("cvm"), B=25, alpha=0.1,
                                rng=RngStream(1))
        assert not out.reject
        assert out.statistic_value == out.critical_value == 1.0
        # p-value counts ties: (1 + B) / (B + 1) = 1
        assert out.p_value == 1.0
    finally:
        bs.evaluate_statistic, bs.replicate_statistics = orig


def test_p_value_tie_convention():
    # synthetic ties via monkeypatched statistic values
    import steinfit.bootstrap as bs
    x = burr_data(n=20, seed=13)
    values = iter([2.0] + [1.0] * 10 + [2.0] * 5 + [3.0] * 5)
    orig = bs.evaluate_statistic, bs.replicate_statistics
    try:
        bs.evaluate_statistic = lambda family, stat, data, fit: next(values)
        bs.replicate_statistics = lambda family, stats, X, params: np.array(
            [[next(values)] for _ in X])
        out = bs.bootstrap_test(x, "burr", StatisticId("cvm"), B=20, alpha=0.25,
                                rng=RngStream(2))
        # observed 2.0: replicas >= 2.0 number 10, p = 11/21
        assert out.p_value == pytest.approx(11 / 21)
        # critical value: rank ceil(0.75*20) = 15 -> sorted[14] = 2.0, no reject
        assert out.critical_value == 2.0
        assert not out.reject
    finally:
        bs.evaluate_statistic, bs.replicate_statistics = orig


def test_replicates_use_their_own_refits():
    import steinfit.bootstrap as bs
    x = burr_data(n=60, seed=21)
    seen = []
    orig = bs.evaluate_statistic, bs.replicate_statistics

    def spy(family, stat, data, fit):
        seen.append((fit.params["k"], fit.params["c"]))
        return orig[0](family, stat, data, fit)

    def spy_rows(family, stats, X, params):
        seen.extend(zip(params["k"], params["c"]))
        return orig[1](family, stats, X, params)

    try:
        bs.evaluate_statistic, bs.replicate_statistics = spy, spy_rows
        bs.bootstrap_test(x, "burr", StatisticId("burr_B", a=3.0), B=10, alpha=0.1,
                          rng=RngStream(3))
    finally:
        bs.evaluate_statistic, bs.replicate_statistics = orig
    assert len(set(seen)) == len(seen) == 11  # observed fit + 10 distinct refits


def test_gamma_and_normal_families():
    g = sample(make_distribution("gamma", k=2, lam=1), 60, RngStream(31)).values
    out = bootstrap_test(g, "gamma", StatisticId("generic_L2", a=1.0), B=30,
                         alpha=0.1, rng=RngStream(4))
    assert out.effective_B == 30
    z = sample(make_distribution("normal", mu=0, sigma2=1), 60, RngStream(32)).values
    out = bootstrap_test(z, "normal", StatisticId("generic_L2", a=1.0), B=30,
                         alpha=0.1, rng=RngStream(4))
    assert out.effective_B == 30


def test_evaluate_statistic_guards():
    x = burr_data(n=20, seed=1)
    fit = fit_family_retry("burr", x)
    with pytest.raises(ValueError):
        evaluate_statistic("gamma", StatisticId("burr_B", a=1.0), x, fit)


def test_parameter_validation():
    x = burr_data(n=20, seed=1)
    with pytest.raises(ValueError):
        bootstrap_test(x, "burr", StatisticId("cvm"), B=0, alpha=0.1, rng=RngStream(1))
    with pytest.raises(ValueError):
        bootstrap_test(x, "burr", StatisticId("cvm"), B=10, alpha=1.5, rng=RngStream(1))


def test_replicate_dropped_whole_when_a_later_statistic_fails(monkeypatch):
    import steinfit.bootstrap as bs
    x = burr_data(n=40, seed=17)
    stats = [StatisticId("burr_B", a=3.0), StatisticId("ks")]
    B = 20
    stream = lambda j: RngStream(8).child("rep", j)
    _, _, full, failed = bootstrap_replicates(x, "burr", stats, B, stream)
    assert full.shape == (B, 2) and failed == 0

    orig = bs.replicate_statistics

    def flaky(family, stats, X, params):
        out = orig(family, stats, X, params)
        out[2, 1] = float("nan")  # the KS value of replicate 3 cannot be computed
        return out

    monkeypatch.setattr(bs, "replicate_statistics", flaky)
    _, _, boot, failed = bootstrap_replicates(x, "burr", stats, B, stream)
    assert boot.shape == (B - 1, 2)
    assert failed == 1
    # the B_3 value of replicate 3 went out with its row
    assert np.array_equal(boot, np.delete(full, 2, axis=0))


def test_shared_draws_leave_each_statistic_unchanged():
    x = burr_data(n=40, seed=19)
    stream = lambda j: RngStream(9).child("boot", j)
    b3 = StatisticId("burr_B", a=3.0)
    _, obs_pair, pair, failed_pair = bootstrap_replicates(
        x, "burr", [b3, StatisticId("ks")], 25, stream)
    _, obs_one, one, failed_one = bootstrap_replicates(x, "burr", [b3], 25, stream)
    assert failed_pair == failed_one
    assert obs_pair[0] == obs_one[0]
    assert np.array_equal(pair[:, 0], one[:, 0])


def test_non_finite_statistic_fails_the_replicate(monkeypatch):
    import steinfit.bootstrap as bs
    x = burr_data(n=40, seed=23)
    stats = [StatisticId("burr_B", a=1.0), StatisticId("ks")]
    B = 20
    stream = lambda j: RngStream(10).child("rep", j)
    orig = bs.replicate_statistics

    def inf_once(family, stats, X, params):
        out = orig(family, stats, X, params)
        out[4, 1] = float("inf")  # the KS value of replicate 5
        return out

    monkeypatch.setattr(bs, "replicate_statistics", inf_once)
    _, _, boot, failed = bootstrap_replicates(x, "burr", stats, B, stream)
    assert boot.shape == (B - 1, 2)
    assert failed == 1
    assert np.all(np.isfinite(boot))


def test_non_finite_observed_statistic_raises(monkeypatch):
    import steinfit.bootstrap as bs
    x = burr_data(n=30, seed=24)
    monkeypatch.setattr(bs, "evaluate_statistic", lambda family, stat, data, fit: math.inf)
    with pytest.raises(BootstrapError):
        bs.bootstrap_test(x, "burr", StatisticId("cvm"), B=10, alpha=0.1, rng=RngStream(1))


# --------------------------------------------------------------------------
# The batched replicates against the scalar loop they replace
# --------------------------------------------------------------------------

def scalar_replicates(x, family, stats, B, stream):
    """The replicate loop before batching, one sample(), fit_family_retry and
    evaluate_statistic call per replicate: (sorted kept draws, their
    statistics, failed)."""
    fitted = fitted_distribution(family, fit_family_retry(family, x))
    kept, rows = [], []
    for j in range(1, B + 1):
        xb = sample(fitted, x.size, stream(j)).values
        try:
            fb = fit_family_retry(family, xb)
            if not fb.converged:
                raise FitError(fb.message)
            row = [evaluate_statistic(family, stat, xb, fb) for stat in stats]
            if not np.all(np.isfinite(row)):
                raise FloatingPointError("non-finite statistic")
        except (FitError, ValueError, FloatingPointError):
            continue
        kept.append(np.sort(xb))
        rows.append(row)
    return np.array(kept), np.array(rows), B - len(kept)


def batched_replicates(monkeypatch, x, family, stats, B, stream):
    """bootstrap_replicates, also returning the sorted draws it kept."""
    import steinfit.bootstrap as bs
    seen = []

    def spy(family, stats, X, params):
        out = replicate_statistics(family, stats, X, params)
        seen.append(X[np.all(np.isfinite(out), axis=1)])
        return out

    monkeypatch.setattr(bs, "replicate_statistics", spy)
    _, _, boot, failed = bootstrap_replicates(x, family, stats, B, stream)
    return seen[0], boot, failed


BURR_STATS = [StatisticId("burr_B", a=0.25), StatisticId("burr_B", a=1.0),
              StatisticId("burr_B", a=3.0), StatisticId("ks"), StatisticId("ks", sqrt_n=True),
              StatisticId("cvm"), StatisticId("ad"), StatisticId("watson")]


@pytest.mark.parametrize("family, x, stats, rtol", [
    ("burr", burr_data(n=50, k=1.3, c=1.7, seed=31), BURR_STATS, 1e-6),
    # a fitted c near 0.01: some draws underflow to 0 or overflow to inf
    ("burr", burr_data(n=20, k=1.0, c=0.0105, seed=2), BURR_STATS[3:], 1e-6),
    # a fitted k near 0.012: some draws underflow to 0
    ("gamma", np.array([1.0] + [0.001] * 99) * (1 + 0.01 * np.random.default_rng(1).random(100)),
     [StatisticId("generic_L2", a=1.0), StatisticId("ks"), StatisticId("cvm")], 1e-12),
    ("normal", np.random.default_rng(7).standard_t(4, 40),
     [StatisticId("generic_L2", a=0.5), StatisticId("watson"), StatisticId("ad")], 1e-12),
])
def test_batched_replicates_match_the_scalar_loop(monkeypatch, family, x, stats, rtol):
    stream = lambda j: RngStream(5).child("boot", j)
    with np.errstate(over="ignore"):
        ref_kept, ref_boot, ref_failed = scalar_replicates(x, family, stats, 200, stream)
        kept, boot, failed = batched_replicates(monkeypatch, x, family, stats, 200, stream)
    assert failed == ref_failed
    assert np.array_equal(kept, ref_kept)
    # gamma and normal rows have the scalar fits bit for bit; Burr rows the
    # Newton fit, within about 1e-7 relative of bounded Brent's c
    np.testing.assert_allclose(boot, ref_boot, rtol=rtol, atol=0)


def test_underflow_parity_cases_do_fail_rows():
    with np.errstate(over="ignore"):
        for x, family in [(burr_data(n=20, k=1.0, c=0.0105, seed=2), "burr"),
                          (np.array([1.0] + [0.001] * 99)
                           * (1 + 0.01 * np.random.default_rng(1).random(100)), "gamma")]:
            _, _, failed = scalar_replicates(x, family, [StatisticId("ks")], 200,
                                             lambda j: RngStream(5).child("boot", j))
            assert 0 < failed <= 10


def test_fit_rows_fallback_equals_fit_family_retry(monkeypatch):
    import steinfit.bootstrap as bs
    # rows: an ordinary one; two whose profile rises past c = 1e3 (the
    # batched fit leaves them to burr_mle, which widens its bracket, fits
    # the first at c = 3135 and leaves the near-constant one on the edge of
    # its widest bracket, c = 1e7); an underflowed draw, an overflowed draw
    # and a constant row (burr_mle raises FitError)
    _fit_rows = _FAMILIES["burr"].fit_rows
    base = burr_data(n=30, k=1.0, c=2.0, seed=41)
    X = np.array([base, burr_data(n=30, k=1.0, c=3000.0, seed=42), 1.0 + 1e-9 * np.arange(30.0),
                  np.where(base == base.min(), 0.0, base),
                  np.where(base == base.max(), np.inf, base), np.full(30, 2.0)])
    fit = fit_family_retry("burr", base)
    orig = bs.fit_family_retry
    fallback = []

    def spy(family, x):
        fallback.append(x)
        return orig(family, x)

    monkeypatch.setattr(bs, "fit_family_retry", spy)
    params, ok = _fit_rows(X, fit)
    assert np.array_equal(np.array(fallback), X[1:3])
    assert ok.tolist() == [True, True, False, False, False, False]
    for i in (1, 2):
        ref = orig("burr", X[i])
        assert (params["k"][i], params["c"][i]) == (ref.params["k"], ref.params["c"])

    # a fallback fit that does not converge fails its row
    monkeypatch.setattr(bs, "fit_family_retry",
                        lambda family, x: dataclasses.replace(orig(family, x), converged=False))
    assert _fit_rows(X, fit)[1].tolist() == [True, False, False, False, False, False]

    # so does one that raises, as the scalar loop dropped such a replicate
    def raises(family, x):
        raise ValueError("math domain error")

    monkeypatch.setattr(bs, "fit_family_retry", raises)
    assert _fit_rows(X, fit)[1].tolist() == [True, False, False, False, False, False]


@pytest.mark.parametrize("family, data, stats", [
    ("burr", burr_data(n=45, k=2.0, c=1.2, seed=51), BURR_STATS + [StatisticId("generic_L2", a=1.0)]),
    ("gamma", sample(make_distribution("gamma", k=2, lam=1), 45, RngStream(52)).values,
     [StatisticId("generic_L2", a=1.0), StatisticId("ks"), StatisticId("cvm"),
      StatisticId("ad"), StatisticId("watson")]),
    ("normal", sample(make_distribution("normal", mu=1, sigma2=4), 45, RngStream(53)).values,
     [StatisticId("generic_L2", a=1.0), StatisticId("ks"), StatisticId("watson")]),
])
def test_replicate_row_independent_of_batch_size(family, data, stats):
    stream = lambda j: RngStream(6).child("rep", j)
    _, _, boot, failed = bootstrap_replicates(data, family, stats, 30, stream)
    _, _, first, failed_1 = bootstrap_replicates(data, family, stats, 1, stream)
    assert failed == failed_1 == 0
    assert np.array_equal(first[0], boot[0])


@pytest.mark.parametrize("family, x, stats, fails", [
    ("burr", burr_data(n=40, seed=61), BURR_STATS + [StatisticId("generic_L2", a=1.0)], False),
    # rows that fail: draws that underflow to 0 or overflow to inf
    ("burr", burr_data(n=20, k=1.0, c=0.0105, seed=2), BURR_STATS[3:], True),
    ("gamma", np.array([1.0] + [0.001] * 99) * (1 + 0.01 * np.random.default_rng(1).random(100)),
     [StatisticId("ks"), StatisticId("cvm")], True),
])
def test_blocks_leave_the_replicates_unchanged(monkeypatch, family, x, stats, fails):
    import steinfit.bootstrap as bs
    stream = lambda j: RngStream(7).child("rep", j)
    with np.errstate(over="ignore"):
        _, _, whole, failed = bootstrap_replicates(x, family, stats, 100, stream)
        monkeypatch.setattr(bs, "BLOCK_DRAWS", 7 * x.size)  # 14 blocks of 7 rows, then 2
        _, _, blocked, failed_blocked = bootstrap_replicates(x, family, stats, 100, stream)
    assert (failed > 0) == fails
    assert failed_blocked == failed
    assert np.array_equal(blocked, whole)


# --------------------------------------------------------------------------
# The family table
# --------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_family_operator_is_the_unit_laws_default(family):
    data = {"burr": burr_data(n=40, k=1.3, c=1.7, seed=71),
            "gamma": sample(make_distribution("gamma", k=2, lam=3), 40, RngStream(72)).values,
            "normal": sample(make_distribution("normal", mu=1, sigma2=4), 40,
                             RngStream(73)).values}[family]
    record = _FAMILIES[family]
    assert record.operator == default_operator(
        fitted_distribution(family, fit_family_retry(family, data))).variant
    _, _, unit = record.unit(fit_family_retry(family, data).params)
    assert record.operator == default_operator(make_distribution(record.law, **unit)).variant


def test_a_copied_family_record_gives_the_same_test(monkeypatch):
    import steinfit.bootstrap as bs
    monkeypatch.setitem(bs._FAMILIES, "normal_copy", bs._FAMILIES["normal"])
    z = sample(make_distribution("normal", mu=1, sigma2=4), 50, RngStream(74)).values
    for stat in (StatisticId("generic_L2", a=1.0), StatisticId("ad")):
        ref = bootstrap_test(z, "normal", stat, B=40, alpha=0.1, rng=RngStream(8)).to_dict()
        got = bootstrap_test(z, "normal_copy", stat, B=40, alpha=0.1, rng=RngStream(8)).to_dict()
        assert got.pop("family") == "normal_copy"
        ref.pop("family")
        assert got == ref


def test_unknown_family_raises_value_error():
    x = burr_data(n=20, seed=1)
    with pytest.raises(ValueError, match="unknown hypothesis family"):
        bootstrap_test(x, "weibull", StatisticId("cvm"), B=10, rng=RngStream(1))
    with pytest.raises(ValueError, match="unknown hypothesis family"):
        fitted_distribution("weibull", fit_family_retry("burr", x))


def test_burr_l2_through_the_table_equals_the_quadrature_oracle():
    for seed in range(5):
        x = burr_data(n=40, k=1.3, c=1.7, seed=80 + seed)
        fit = fit_family_retry("burr", x)
        for a in (0.25, 1.0, 3.0):
            got = evaluate_statistic("burr", StatisticId("generic_L2", a=a), x, fit)
            assert got == pytest.approx(
                burr_B_quadrature(x, fit.params["k"], fit.params["c"], a), rel=1e-12)
