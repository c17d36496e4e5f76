"""Characterization-based goodness-of-fit testing toolkit."""

from .bootstrap import BootstrapError, TestOutcome, bootstrap_test, evaluate_statistic
from .characterization import (
    ConditionReport,
    OperatorKind,
    QuadratureError,
    check_conditions,
    default_operator,
    density_identity,
    empirical_T_min,
    empirical_T_zero_bias,
    exact_T,
    fixed_point_residual,
    stein_expectation,
    test_function_ftp,
)
from .distributions import (
    DistributionSpec,
    DomainError,
    ParameterError,
    RngStream,
    Support,
    cdf,
    log_likelihood,
    logpdf,
    make_distribution,
    pdf,
    quantile,
    sample,
    score,
    sf,
)
from .estimation import FitError, FitResult, burr_mle, gamma_fit, normal_fit
from .gof import StatisticId, ad, burr_B_closed, burr_B_quadrature, cvm, generic_L2, ks, watson
from .simulation import (
    ConfigError,
    PowerStudyConfig,
    PowerStudyReport,
    config_from_dict,
    render_table,
    run_power_study,
)

__version__ = "0.1.0"
