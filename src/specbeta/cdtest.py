"""Monte-Carlo test of the null hypothesis of no confounding (theta = 0).

The statistic measures how much of the regression direction sits in the
low-eigenvalue eigenspaces of the predictor covariance, relative to the
uniform-direction expectation.  Confounding (and overfitting) pushes the
direction into those subspaces and inflates the statistic, hence a one-sided
upper-tail test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .genmodel import as_generator
from .spectral import CovarianceModel, UnitDirection, regression_vector, unit_direction

SPHERE_MONTE_CARLO = "sphere_monte_carlo"
MIXED_CHI2 = "mixed_chi2"

DEFAULT_NULL_COUNT = 1000
MIN_NULL_COUNT = 100


@dataclass(frozen=True)
class TestResult:
    """Observed statistic, null sample and one-sided p-value."""

    t_observed: float
    p_value: float
    null_samples: NDArray[np.float64]
    method: str
    null_count: int


def statistic_T(direction: UnitDirection, cov: CovarianceModel) -> float:
    """Centered quadratic form (1/sqrt(d)) { <v, sigma_xx^{-1} v> - tau(sigma_xx^{-1}) }.

    Zero in expectation for a uniformly random direction; positive when the
    direction overpopulates small-eigenvalue eigenspaces.
    """
    w = direction.coords_in(cov)
    return float((np.sum(w * w / cov.eigenvalues) - cov.tau_inv) / np.sqrt(cov.d))


def null_samples_sphere(
    cov: CovarianceModel,
    count: int = DEFAULT_NULL_COUNT,
    rng: int | np.random.Generator = 0,
) -> NDArray[np.float64]:
    """Exact null: statistic of directions drawn uniformly from the sphere."""
    _check_count(count)
    g = as_generator(rng)
    b = g.standard_normal((count, cov.d))
    w2 = b * b
    w2 /= w2.sum(axis=1, keepdims=True)
    return (w2 @ (1.0 / cov.eigenvalues) - cov.tau_inv) / np.sqrt(cov.d)


def null_samples_mixed_chi2(
    cov: CovarianceModel,
    count: int = DEFAULT_NULL_COUNT,
    rng: int | np.random.Generator = 0,
) -> NDArray[np.float64]:
    """Approximate null: weighted sum of squared Gaussians (no renormalization).

    Coefficients are drawn with variance 1/d, which makes the weighted sum
    centered at tau(sigma_xx^{-1}) and matches the exact null in expectation.
    Intended for moderate to large d; the approximation degrades at tiny d.
    """
    _check_count(count)
    g = as_generator(rng)
    a2 = g.standard_normal((count, cov.d)) ** 2 / cov.d
    return (a2 @ (1.0 / cov.eigenvalues) - cov.tau_inv) / np.sqrt(cov.d)


def test_nonconfounding(
    cov: CovarianceModel,
    null_count: int = DEFAULT_NULL_COUNT,
    method: str = SPHERE_MONTE_CARLO,
    rng: int | np.random.Generator = 0,
) -> TestResult:
    """One-sided Monte-Carlo test of no confounding on a fitted covariance model.

    Computes the regression direction, evaluates the statistic, draws
    ``null_count`` null samples with the chosen method and returns the
    add-one upper-tail p-value (1 + #{null >= observed}) / (1 + count),
    which is valid and never exactly zero.
    """
    g = as_generator(rng)
    direction = unit_direction(regression_vector(cov), cov)
    t_obs = statistic_T(direction, cov)
    if method == SPHERE_MONTE_CARLO:
        null = null_samples_sphere(cov, null_count, g)
    elif method == MIXED_CHI2:
        null = null_samples_mixed_chi2(cov, null_count, g)
    else:
        raise ValueError(f"unknown null method {method!r}")
    p = (1 + int(np.sum(null >= t_obs))) / (1 + null_count)
    return TestResult(
        t_observed=t_obs,
        p_value=p,
        null_samples=null,
        method=method,
        null_count=null_count,
    )


def _check_count(count: int) -> None:
    if count < MIN_NULL_COUNT:
        raise ValueError(f"null sample count must be >= {MIN_NULL_COUNT}, got {count}")
