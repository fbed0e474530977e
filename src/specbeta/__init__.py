"""Detect hidden confounding between a multivariate predictor and a scalar target.

In a linear model, confounding by unobserved common causes (and likewise
overfitting) pushes the regression vector into the low-eigenvalue eigenspaces
of the predictor covariance.  This package quantifies that alignment: it
estimates the confounding strength beta in [0, 1] by maximum likelihood over
a one-parameter family of direction densities on the sphere, and tests the
null hypothesis of no confounding with a Monte-Carlo spectral statistic.
"""

from types import ModuleType as _ModuleType

from .cdtest import (
    SPHERE_MONTE_CARLO,
    TestResult,
    null_samples_sphere,
    statistic_T,
    test_nonconfounding,
)
from .errors import DataError, NumericError, SpecbetaError, ZeroSignalError
from .estimator import (
    BetaEstimate,
    beta_from_theta,
    concentrated_loglik,
    concentration_bound,
    direction_density,
    estimate_confounding,
    estimate_theta,
    log_direction_density,
)
from .genmodel import (
    GroundTruth,
    generate_samples,
    overfit_dataset,
    sample_aprime_def1,
    sample_aprime_def2,
    sample_covariance,
    sample_ground_truth,
    true_beta,
)
from .harness import (
    ExperimentConfig,
    emit_report,
    read_numeric_csv,
    run,
)
from .spectral import (
    CovarianceModel,
    direction_coords,
    empirical_covariance,
    regression_vector,
    unit_direction,
)

__version__ = "0.1.0"

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
