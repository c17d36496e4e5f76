import math

import numpy as np
import pytest

from steinfit.bootstrap import (
    BootstrapError,
    bootstrap_replicates,
    bootstrap_test,
    critical_rank,
    evaluate_statistic,
    fit_family_retry,
)
from steinfit.distributions import RngStream, make_distribution, sample
from steinfit.gof import StatisticId


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
    orig = bs.evaluate_statistic
    try:
        bs.evaluate_statistic = lambda family, stat, data, fit: 1.0
        out = bs.bootstrap_test(x, "burr", StatisticId("cvm"), B=25, alpha=0.1,
                                rng=RngStream(1))
        assert not out.reject
        assert out.statistic_value == out.critical_value == 1.0
        # p-value counts ties: (1 + B) / (B + 1) = 1
        assert out.p_value == 1.0
    finally:
        bs.evaluate_statistic = orig


def test_p_value_tie_convention():
    # synthetic ties via monkeypatched statistic values
    import steinfit.bootstrap as bs
    x = burr_data(n=20, seed=13)
    values = iter([2.0] + [1.0] * 10 + [2.0] * 5 + [3.0] * 5)
    orig = bs.evaluate_statistic
    try:
        bs.evaluate_statistic = lambda family, stat, data, fit: next(values)
        out = bs.bootstrap_test(x, "burr", StatisticId("cvm"), B=20, alpha=0.25,
                                rng=RngStream(2))
        # observed 2.0: replicas >= 2.0 number 10, p = 11/21
        assert out.p_value == pytest.approx(11 / 21)
        # critical value: rank ceil(0.75*20) = 15 -> sorted[14] = 2.0, no reject
        assert out.critical_value == 2.0
        assert not out.reject
    finally:
        bs.evaluate_statistic = orig


def test_replicates_use_their_own_refits():
    import steinfit.bootstrap as bs
    x = burr_data(n=60, seed=21)
    seen = []
    orig = bs.evaluate_statistic

    def spy(family, stat, data, fit):
        seen.append((fit.params["k"], fit.params["c"]))
        return orig(family, stat, data, fit)

    try:
        bs.evaluate_statistic = spy
        bs.bootstrap_test(x, "burr", StatisticId("burr_B", a=3.0), B=10, alpha=0.1,
                          rng=RngStream(3))
    finally:
        bs.evaluate_statistic = orig
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

    orig = bs.evaluate_statistic
    calls = {"ks": 0}

    def flaky(family, stat, data, fit):
        if stat.tag == "ks":
            calls["ks"] += 1
            if calls["ks"] == 4:  # observed sample, then replicates 1, 2, 3
                raise ValueError("injected failure")
        return orig(family, stat, data, fit)

    monkeypatch.setattr(bs, "evaluate_statistic", flaky)
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
    orig = bs.evaluate_statistic
    calls = {"n": 0}

    def nan_once(family, stat, data, fit):
        if stat.tag == "ks":
            calls["n"] += 1
            if calls["n"] == 6:  # observed sample, then replicates 1..5
                return float("nan")
        return orig(family, stat, data, fit)

    monkeypatch.setattr(bs, "evaluate_statistic", nan_once)
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
