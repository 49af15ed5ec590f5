"""Identification of velocity, dispersion coefficient and fractional order
for a space fractional advection-dispersion equation from final-time
concentration and flux measurements."""

from .fracpoly import (
    Polynomial,
    FracExpansion,
    gamma,
    digamma,
    rgamma,
    rl_derivative,
    rl_alpha_sensitivity,
)
from .modfun import ModulatingFamily, DataMoments, build_family
from .synthdata import (
    TrueModel,
    MeasurementSet,
    exact_solution,
    source_term,
    synthesize,
    add_noise,
    restrict,
)
from .estimator import (
    LinearSystem,
    EstimatorConfig,
    EstimateResult,
    RankDeficientError,
    GradientDegenerateError,
    Linearization,
    trapezoid,
    measurement_moments,
    assemble_theorem1,
    solve_2col_least_squares,
    linearize,
    estimate_two_param,
    newton_estimate,
)

__version__ = "0.1.0"
