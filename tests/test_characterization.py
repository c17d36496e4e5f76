import dataclasses
import math

import numpy as np
import pytest

from steinfit.characterization import (
    VARIANTS,
    OperatorKind,
    check_conditions,
    default_operator,
    density_identity,
    empirical_T_min,
    empirical_T_zero_bias,
    exact_T,
    fixed_point_residual,
    stein_expectation,
)
from steinfit.characterization import test_function_ftp as ftp_value
from steinfit.distributions import (
    DomainError,
    RngStream,
    boundary_density_limit,
    cdf,
    make_distribution,
    pdf,
    quantile,
    sample,
    score,
    sf,
)


def burr(k, c):
    return make_distribution("burr_xii", k=k, c=c)


EXP1 = make_distribution("exponential", lam=1.0)
EXP2 = make_distribution("exponential", lam=2.0)
UNIFORM = make_distribution("uniform", left=0.0, right=1.0)


# --------------------------------------------------------------------------
# empirical operators
# --------------------------------------------------------------------------

def test_empirical_T_min_hand_values():
    b = burr(1, 1)
    fn = lambda v: score(b, v)
    assert empirical_T_min([1.0], fn, 2.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    exp_score = lambda v: score(EXP1, v)
    assert empirical_T_min([2.0], exp_score, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert empirical_T_min([1.0, 3.0], exp_score, 2.0, 0.0) == pytest.approx(1.5, abs=1e-14)


def test_empirical_T_min_domain_errors():
    fn = lambda v: -np.ones_like(v)
    with pytest.raises(DomainError):
        empirical_T_min([0.5, -1.0], fn, 1.0, 0.0)
    with pytest.raises(DomainError):
        empirical_T_min([0.5], fn, -0.1, 0.0)


def test_empirical_T_min_piecewise_linear():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.2, 3.0, size=9))
    fn = lambda v: score(burr(2, 1.5), v)
    # linear between consecutive order statistics: midpoint equals chord
    for lo, hi in zip(x[:-1], x[1:]):
        mid = 0.5 * (lo + hi)
        chord = 0.5 * (empirical_T_min(x, fn, lo, 0.0) + empirical_T_min(x, fn, hi, 0.0))
        assert empirical_T_min(x, fn, mid, 0.0) == pytest.approx(chord, rel=1e-12)
    # constant beyond the max
    top = empirical_T_min(x, fn, x[-1], 0.0)
    assert empirical_T_min(x, fn, x[-1] + 5.0, 0.0) == pytest.approx(top, rel=1e-12)
    # continuity across a breakpoint
    eps = 1e-9
    assert empirical_T_min(x, fn, x[3] - eps, 0.0) == pytest.approx(
        empirical_T_min(x, fn, x[3] + eps, 0.0), abs=1e-7)


def test_empirical_T_zero_bias_hand_values():
    assert empirical_T_zero_bias([0.0], 1.0, 1.0) == 0.0
    assert empirical_T_zero_bias([-1.0, 1.0], 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert empirical_T_zero_bias([-1.0, 1.0], 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_law_of_large_numbers_hook():
    dist = make_distribution("gamma", k=2.0, lam=1.0)
    s = sample(dist, 100_000, RngStream(99, 1))
    fn = lambda v: score(dist, v)
    for u in (0.1, 0.3, 0.5, 0.7, 0.9):
        t = float(quantile(dist, u))
        est = empirical_T_min(s, fn, t, 0.0)
        exact = exact_T(dist, None, t)
        terms = -score(dist, s) * np.minimum(s, t)
        se = terms.std() / math.sqrt(s.size)
        assert abs(est - exact) <= 4 * se


# --------------------------------------------------------------------------
# exact operators and fixed points
# --------------------------------------------------------------------------

def test_exact_T_hand_values():
    assert exact_T(EXP1, None, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-9)
    kind = default_operator(UNIFORM)
    assert kind.variant == "bounded_right_limit"
    assert exact_T(UNIFORM, kind, 0.3) == pytest.approx(0.3, abs=1e-12)
    b = burr(2, 3)
    assert exact_T(b, None, 0.7) == pytest.approx(cdf(b, 0.7), abs=1e-9)


def test_fixed_point_residual_weibull_lognormal():
    assert fixed_point_residual(make_distribution("weibull", k=1.5, lam=1.0)) <= 1e-6
    assert fixed_point_residual(make_distribution("lognormal", mu=0.0, sigma=1.0)) <= 1e-6


def test_fixed_point_of_the_max_type_bounded_operators():
    # beta(1, 2) has density 2(1 - x), so its left-limit identity carries p(0) = 2
    beta12 = make_distribution("beta", alpha=1.0, beta=2.0)
    rho = boundary_density_limit(beta12, "left")
    assert rho == pytest.approx(2.0, rel=1e-14)
    kind = OperatorKind("bounded_left_limit")
    assert exact_T(beta12, kind, 0.3) == pytest.approx(cdf(beta12, 0.3), abs=1e-9)
    assert fixed_point_residual(beta12, kind) < 1e-9
    # beta(2, 3) vanishes at 0, so the max-type operator needs no boundary term
    beta23 = make_distribution("beta", alpha=2.0, beta=3.0)
    kind = OperatorKind("upper_bounded_max")
    assert exact_T(beta23, kind, 0.3) == pytest.approx(cdf(beta23, 0.3), abs=1e-9)
    assert fixed_point_residual(beta23, kind) < 1e-9


@pytest.mark.parametrize("variant", ["bounded_right_limit", "bounded_left_limit"])
@pytest.mark.parametrize("identity", [exact_T, density_identity])
def test_bounded_operator_without_its_endpoint_limit_is_a_domain_error(variant, identity):
    # both identities carry the endpoint density limit, read from the law; the
    # arcsine density has none at either end, so each refuses the operator
    # with the message steinfit verify prints
    side = "right" if variant == "bounded_right_limit" else "left"
    with pytest.raises(DomainError, match=f"^beta\\(0.5,0.5\\): density has no finite limit at "
                                          f"the {side} endpoint; the bounded-support"):
        identity(ARCSINE, t=0.3, kind=OperatorKind(variant))


BETA23 = make_distribution("beta", alpha=2.0, beta=3.0)
BETA12 = make_distribution("beta", alpha=1.0, beta=2.0)
ARCSINE = make_distribution("beta", alpha=0.5, beta=0.5)
NORMAL = make_distribution("normal", mu=0.0, sigma2=1.0)
SHIFTED_GAMMA = make_distribution("shifted_gamma", k=2.0, lam=1.0, mu=1.0)

# one law per characterization identity, with the verdicts that identity requires
IDENTITY_ROWS = [
    (NORMAL, None, "real_line", {"c2", "c3"}),
    (EXP1, None, "positive_axis_min", {"c2", "c3", "c4"}),
    (SHIFTED_GAMMA, None, "lower_bounded_min", {"c2", "c3", "c4"}),
    # the left end 0 of beta(2, 3) is the max form's far end, so its density
    # must vanish there
    (BETA23, OperatorKind("upper_bounded_max"), "upper_bounded_max",
     {"c2", "c3", "c5", "boundary"}),
    (BETA23, None, "bounded_right_limit", {"c2", "c3", "c4", "c5", "boundary"}),
    (BETA12, OperatorKind("bounded_left_limit"), "bounded_left_limit",
     {"c2", "c3", "c4", "c5", "boundary"}),
]


@pytest.mark.parametrize("dist,kind,variant,required", IDENTITY_ROWS,
                         ids=[row[2] for row in IDENTITY_ROWS])
def test_every_identity_reproduces_its_law(dist, kind, variant, required):
    assert (kind or default_operator(dist)).variant == variant
    for u in (0.1, 0.3, 0.5, 0.7, 0.9):
        t = float(quantile(dist, u))
        assert exact_T(dist, kind, t) == pytest.approx(cdf(dist, t), abs=1e-9)
        assert density_identity(dist, t, kind) == pytest.approx(pdf(dist, t), abs=1e-9)
    rep = check_conditions(dist, kind=kind)
    assert rep.variant == variant
    assert list(rep.verdicts) == ["c2", "c3", "c4", "c5", "boundary"]
    assert {c for c, v in rep.verdicts.items() if v != "not_applicable"} == required
    assert all(rep.verdicts[c] == "pass" for c in required)
    assert rep.supported


@pytest.mark.parametrize("dist,kind,t", [
    (EXP1, None, -1.0),
    (EXP1, None, 0.0),
    (BETA12, OperatorKind("bounded_left_limit"), -0.5),
    (BETA23, None, 1.5),
    (make_distribution("normal", mu=0.0, sigma2=1.0), None, math.inf),
], ids=["exp1_below", "exp1_at_left_end", "beta12_left_limit_below", "beta23_above",
        "normal_at_inf"])
@pytest.mark.parametrize("identity", [exact_T, density_identity])
def test_identities_refuse_t_outside_the_support(dist, kind, t, identity):
    with pytest.raises(DomainError, match="^t outside the open support"):
        identity(dist, t=t, kind=kind)


def test_mismatched_law_residual():
    # operator of Exp(1) evaluated under Exp(2) data: E[min{X,t}] = (1-e^{-2t})/2
    val = exact_T(EXP1, None, 1.0, under=EXP2)
    assert val == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-9)
    assert abs(val - cdf(EXP2, 1.0)) > 0.1
    assert fixed_point_residual(EXP1, under=EXP2) > 0.1


SEPARATION_PAIRS = [
    (EXP1, EXP2),
    (make_distribution("gamma", k=2, lam=1), make_distribution("gamma", k=3, lam=1)),
    (make_distribution("weibull", k=1.5, lam=1), make_distribution("gamma", k=2, lam=1)),
    (burr(1, 1), burr(2, 1)),
    (burr(2, 2), make_distribution("lognormal", mu=0, sigma=1)),
    (make_distribution("normal", mu=0, sigma2=1), make_distribution("normal", mu=0, sigma2=2)),
    (make_distribution("laplace", mu=0, sigma=1), make_distribution("normal", mu=0, sigma2=1)),
    (make_distribution("lognormal", mu=0, sigma=1), make_distribution("lognormal", mu=0.5, sigma=1)),
    (make_distribution("beta", alpha=2, beta=3), make_distribution("beta", alpha=3, beta=2)),
    (UNIFORM, make_distribution("beta", alpha=2, beta=2)),
    (make_distribution("inverse_gaussian", mu=1, lam=1), make_distribution("gamma", k=1.5, lam=0.8)),
]


@pytest.mark.parametrize("op_dist,law", SEPARATION_PAIRS)
def test_separation_of_mismatched_pairs(op_dist, law):
    assert fixed_point_residual(op_dist, under=law, quad_tol=1e-8) > 0.01


def test_density_identity():
    assert density_identity(EXP1, 1.0) == pytest.approx(math.exp(-1), abs=1e-9)
    g = make_distribution("gamma", k=2.0, lam=1.0)
    assert density_identity(g, 1.0) == pytest.approx(pdf(g, 1.0), abs=1e-8)
    # uniform: score vanishes, the endpoint limit alone reproduces the density
    kind = default_operator(UNIFORM)
    assert density_identity(UNIFORM, 0.37, kind) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# test function and the density-approach identity
# --------------------------------------------------------------------------

def test_ftp_hand_value():
    val = ftp_value(EXP1, 1.0, 0.5)
    assert val == pytest.approx((math.exp(0.5) - 1) * math.exp(-1), rel=1e-12)


def test_ftp_vanishes_at_left_endpoint():
    for dist in (EXP1, burr(2, 3), make_distribution("gamma", k=2, lam=1)):
        vals = [ftp_value(dist, 1.0, x) for x in (1e-3, 1e-6, 1e-9)]
        assert abs(vals[-1]) < abs(vals[0])
        assert abs(vals[-1]) < 1e-8


def test_ftp_continuous_at_t():
    for dist, t in ((EXP1, 0.8), (make_distribution("normal", mu=0, sigma2=1), 0.3)):
        lo = ftp_value(dist, t, t - 1e-12)
        hi = ftp_value(dist, t, t + 1e-12)
        assert lo == pytest.approx(hi, abs=1e-10)


def test_stein_expectation_fixed_points():
    assert abs(stein_expectation(EXP1, EXP1, 1.0)) <= 1e-8
    n01 = make_distribution("normal", mu=0, sigma2=1)
    assert abs(stein_expectation(n01, n01, 0.5)) <= 1e-8


def test_stein_expectation_mismatch():
    val = stein_expectation(EXP1, EXP2, 1.0)
    expected = cdf(EXP2, 1.0) - cdf(EXP1, 1.0)
    assert val == pytest.approx(expected, abs=1e-8)


def test_stein_expectation_support_check():
    with pytest.raises(DomainError):
        stein_expectation(EXP1, make_distribution("normal", mu=0, sigma2=1), 0.5)


# --------------------------------------------------------------------------
# condition diagnostics
# --------------------------------------------------------------------------

def test_conditions_shifted_gamma_flags_c3():
    rep = check_conditions(make_distribution("shifted_gamma", k=0.5, lam=1.0, mu=1.0))
    assert rep.verdicts["c3"] == "fail"
    assert rep.c3_integral == math.inf
    assert not rep.supported


def test_conditions_arcsine_beta_unsupported():
    rep = check_conditions(make_distribution("beta", alpha=0.5, beta=0.5))
    assert rep.verdicts["boundary"] == "fail"
    assert not rep.supported


def test_conditions_burr_pass():
    rep = check_conditions(burr(1, 1))
    assert rep.supported
    assert math.isfinite(rep.c2_sup_kappa)
    assert rep.c2_sup_kappa < 10


def test_conditions_grid_size_precondition():
    with pytest.raises(ValueError):
        check_conditions(burr(1, 1), grid_size=50)


def test_condition_report_serializes():
    rep = check_conditions(make_distribution("shifted_gamma", k=0.5, lam=1.0, mu=1.0))
    doc = rep.to_dict()
    assert doc["c3_integral"] == "inf"
    assert doc["verdicts"]["c3"] == "fail"
    import json
    json.dumps(doc)


def test_operator_kind_validation():
    # a variant is the whole operator: the law supplies L, R and the limit
    assert [f.name for f in dataclasses.fields(OperatorKind)] == ["variant"]
    for variant in VARIANTS:
        assert OperatorKind(variant).variant == variant
    with pytest.raises(ValueError, match="unknown operator variant 'nosuch'"):
        OperatorKind("nosuch")
    # the arcsine law keeps its default operator; using it is what fails
    assert default_operator(ARCSINE) == OperatorKind("bounded_right_limit")


def test_required_conditions_come_from_the_variant_not_the_boundaries_passed():
    # the min form's far end is R: infinite for Exp(1), so only c4 is added
    rep = check_conditions(EXP1, kind=OperatorKind("positive_axis_min"))
    assert rep.verdicts["c5"] == "not_applicable"
    assert rep.verdicts["boundary"] == "not_applicable"
    assert rep.supported
    # a finite far end where the density does not vanish fails the identity:
    # exact_T is off by up to 1.61 (real_line on Exp(1)) and 0.80 (uniform)
    for dist, variant, limit in ((EXP1, "real_line", 1.0),
                                 (UNIFORM, "positive_axis_min", 1.0),
                                 (BETA12, "upper_bounded_max", 2.0)):
        rep = check_conditions(dist, kind=OperatorKind(variant))
        assert rep.verdicts["boundary"] == "fail"
        assert rep.boundary_limit == pytest.approx(limit, rel=1e-6)
        assert not rep.supported


# laws that cannot carry an operator: each lacks a finite end the identity
# uses, or (positive_axis_min) has a left end that is not 0
REFUSED = [
    (NORMAL, "lower_bounded_min", "needs a finite left end, which normal\\(0,1\\) lacks"),
    (EXP1, "upper_bounded_max", "needs a finite right end, which exponential\\(1\\) lacks"),
    (EXP1, "bounded_right_limit", "needs a finite right end, which exponential\\(1\\) lacks"),
    (SHIFTED_GAMMA, "positive_axis_min",
     "needs the left end 0, not the left end 1.0 of shifted_gamma\\(2,1,1\\)"),
]
REFUSED_IDS = ["lower_bounded_min_on_normal", "upper_bounded_max_on_exponential",
               "bounded_right_limit_on_exponential", "positive_axis_min_on_shifted_gamma"]


@pytest.mark.parametrize("dist, variant, message", REFUSED, ids=REFUSED_IDS)
def test_identities_refuse_a_boundary_that_is_not_the_support_end(dist, variant, message):
    # positive_axis_min on shifted_gamma(2, 1, 1) was evaluated at L = 0
    kind = OperatorKind(variant)
    t = float(quantile(dist, 0.5))
    for call in (lambda: exact_T(dist, kind, t), lambda: density_identity(dist, t, kind),
                 lambda: fixed_point_residual(dist, kind)):
        with pytest.raises(DomainError, match=f"^{variant} operator {message}$"):
            call()


def test_check_conditions_refuses_a_boundary_that_is_not_the_support_end():
    for dist, variant, message in REFUSED:
        with pytest.raises(DomainError, match=f"^{variant} operator {message}$"):
            check_conditions(dist, kind=OperatorKind(variant))


def test_identities_refuse_a_data_law_outside_the_support():
    # exact_T failed inside the quadrature and density_identity returned 0.1587
    for call in (lambda: exact_T(EXP1, None, 1.0, under=NORMAL),
                 lambda: density_identity(EXP1, 1.0, under=NORMAL),
                 lambda: fixed_point_residual(EXP1, under=NORMAL)):
        with pytest.raises(DomainError, match="^the support of normal\\(0,1\\) is not contained "
                                              "in the support of exponential\\(1\\)$"):
            call()


MATRIX_LAWS = [NORMAL, EXP1, make_distribution("gamma", k=2.0, lam=1.0), SHIFTED_GAMMA,
               BETA23, BETA12, UNIFORM]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dist", MATRIX_LAWS, ids=[d.label for d in MATRIX_LAWS])
def test_a_supported_identity_reproduces_its_law(dist, variant):
    # every pair is either refused, or reported unsupported, or holds
    kind = OperatorKind(variant)
    try:
        rep = check_conditions(dist, kind=kind)
    except DomainError:
        for identity in (exact_T, density_identity):
            with pytest.raises(DomainError):
                identity(dist, t=float(quantile(dist, 0.5)), kind=kind)
        return
    if not rep.supported:
        return
    for u in (0.2, 0.5, 0.8):
        t = float(quantile(dist, u))
        assert exact_T(dist, kind, t) == pytest.approx(cdf(dist, t), abs=1e-8)
        assert density_identity(dist, t, kind) == pytest.approx(pdf(dist, t), abs=1e-8)


@pytest.mark.parametrize("theta", [1000.0, 0.01])
def test_inverse_weibull_at_extreme_theta_raises_no_warning(theta):
    # x^-theta overflows near 0 at large theta, and the quantile's power
    # overflows at small theta; each is inf without a RuntimeWarning
    dist = make_distribution("inverse_weibull", theta=theta)
    rep = check_conditions(dist)
    assert set(rep.verdicts) == {"c2", "c3", "c4", "c5", "boundary"}
    x = np.logspace(-8, 8, 33)
    for fn in (pdf, cdf, sf, score):
        fn(dist, x)
    assert np.all(quantile(dist, np.logspace(-300, -1, 30)) > 0)
