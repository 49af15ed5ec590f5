"""Identification of velocity, dispersion coefficient and fractional order
for a space fractional advection-dispersion equation from final-time
concentration and flux measurements."""

from .modfun import ModulatingFamily, DataMoments, build_family
from .synthdata import (
    TrueModel,
    MeasurementSet,
    exact_solution,
    source_term,
    synthesize,
    add_noise,
)
from .estimator import (
    EstimatorConfig,
    EstimateResult,
    RankDeficientError,
    GradientDegenerateError,
    Linearization,
    measurement_moments,
    linearize,
    estimate_two_param,
    newton_estimate,
)

__version__ = "0.1.0"
