"""Robust fully-parametric inference for randomly right-censored lifetimes.

Fits exponential and Weibull models to censored samples by minimum density
power divergence (product-limit weighted), estimates the sandwich covariance
of the estimates without any knowledge of the censoring distribution, and
runs robust Wald-type tests: one-sample, two-sample and one-sided, with
influence-function diagnostics and a reproducible Monte Carlo harness.
"""

from .data import (
    CensoredObservation,
    CensoredSample,
    CsvFormatError,
    SyntheticDesign,
    ingest_csv,
    ingest_csv_arms,
    replication_rng,
    simulate,
    write_csv,
)
from .estimator import FitConfig, FitResult, UnidentifiableSampleError, fit, fit_grid, mdpde_objective
from .hypothesis import (
    FunctionRestriction,
    LinearRestriction,
    Restriction,
    TestReport,
    contiguous_power,
    power_approx,
    wald_statistic,
)
from .influence import (
    IfCurve,
    contaminated_contiguous_power,
    if2_two_sample,
    if2_wald,
    if_curve,
    if_estimator,
    kstar,
    lif,
    noncentral_chi2_sf,
    noncentral_weights,
    pif,
    sigma_model,
)
from .kmpl import KmplFit, km_integral, kmpl_fit
from .model import (
    EXPONENTIAL,
    WEIBULL,
    Exponential,
    FamilySpec,
    ParametricFamily,
    Weibull,
    WeightedIntegrals,
    get_family,
    lambda_model,
    mdpde_psi,
)
from .montecarlo import (
    ExperimentReport,
    ExperimentSpec,
    run_experiment,
    run_level_power,
    run_mse,
    run_variance_ratio,
)
from .twosample import (
    LinearTwoSampleRestriction,
    TwoSampleReport,
    TwoSampleRestriction,
    one_sided_wald,
    pooled_sigma,
    two_sample_contiguous,
    two_sample_power_approx,
    two_sample_wald,
)
from .varest import (
    CovarianceEstimate,
    GammaTables,
    SingularSensitivityError,
    c_hat,
    covariance_estimate,
    gamma_tables,
    sigma_hat,
    u_hat,
)

__version__ = "0.1.0"
