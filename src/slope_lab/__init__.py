"""Generalized estimators, squared slope, Fisher bounds, and
slope-based confidence intervals for one-parameter families."""

__version__ = "0.1.0"

from .errors import (
    BiasError,
    BracketError,
    CertificateError,
    CurvatureError,
    DivergentIntegralError,
    DomainError,
    NonexistenceError,
    NonMonotoneError,
    OrientationError,
    QuadratureError,
    SimulationError,
    SlopeLabError,
    ZeroVarianceError,
)
from .families import (
    Bernoulli,
    BivariateNormalSlice,
    CauchyLocation,
    CauchyMedian,
    Family,
    NormalLocation,
    median_density,
    median_fisher_info,
    median_variance,
    reparam,
)
from .gcore import (
    GenEstimator,
    SlopeReport,
    bernoulli_efficiency_curves,
    cauchy_table_row,
    check_identity,
    default_grid,
    effective_n,
    lambda_efficiency,
    lift_point_estimator,
    score_correlation2,
    score_estimator,
    slope_report,
    squared_slope,
    standardize,
    v_efficiency,
    variance,
)
from .intervals import (
    Interval,
    LrtEstimate,
    cauchy_mle,
    exact_bernoulli_interval,
    lrt_estimate,
    lrt_interval,
    observed_info,
    score_interval,
    wald_interval,
)
from .klgeom import KlBall, cauchy_kl_length_from_width, kl_divergence, kl_length, kl_length_center
from .mc import (
    PAPER_ADJUSTMENTS,
    RAW_ADJUSTMENTS,
    SimConfig,
    SimSummary,
    bin_by_obs_info,
    mean_kl_lengths,
    qq_data,
    readjust,
    run_coverage,
)
