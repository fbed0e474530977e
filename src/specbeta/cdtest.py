"""Monte-Carlo test of the null hypothesis of no confounding (theta = 0).

The statistic measures how much of the regression direction sits in the
low-eigenvalue eigenspaces of the predictor covariance, relative to the
uniform-direction expectation.  Confounding (and overfitting) pushes the
direction into those subspaces and inflates the statistic, hence a one-sided
upper-tail test.  Its null is exact: the same statistic of directions drawn
uniformly from the sphere, simulated by Monte Carlo.

Nothing here draws: the caller passes the Monte-Carlo sample as a block of
standard normals, one row per null direction, so the block can be drawn
ahead of the test, on another thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .spectral import CovarianceModel, _unit, direction_coords

SPHERE_MONTE_CARLO = "sphere_monte_carlo"

MIN_NULL_COUNT = 100


@dataclass(frozen=True)
class TestResult:
    """Observed statistic and one-sided p-value."""

    t_observed: float
    p_value: float


def statistic_T(u: NDArray[np.float64], cov: CovarianceModel) -> float:
    """Centered quadratic form (1/sqrt(d)) { <v, sigma_xx^{-1} v> - tau(sigma_xx^{-1}) }
    of the unit direction v with eigenbasis coordinates ``u``.

    Zero in expectation for a uniformly random direction; positive when the
    direction overpopulates small-eigenvalue eigenspaces.  A ``u`` that is
    not a unit vector of the model's length is a ValueError.
    """
    u = _unit(u, cov.eigenvalues.shape)
    return float((np.sum(u * u / cov.eigenvalues) - cov.tau_inv) / np.sqrt(cov.d))


def null_samples_sphere(cov: CovarianceModel, normals: NDArray[np.float64]) -> NDArray[np.float64]:
    """Exact null: statistic of the uniform directions of the rows of ``normals``.

    ``normals`` is a (count, d) block of standard normals, count >= MIN_NULL_COUNT;
    any other shape is a ValueError.  The block is the scratch space of the
    computation and is overwritten, so pass each block once.
    """
    if normals.ndim != 2 or normals.shape[1] != cov.d:
        raise ValueError(f"null block must be (count, {cov.d}), got {normals.shape}")
    if normals.shape[0] < MIN_NULL_COUNT:
        raise ValueError(
            f"null sample count must be >= {MIN_NULL_COUNT}, got {normals.shape[0]}"
        )
    # squared and normalised in place: a second (count, d) array would cost
    # more than the arithmetic, in fresh pages
    w2 = np.square(normals, out=normals)
    w2 /= w2.sum(axis=1, keepdims=True)
    return (w2 @ (1.0 / cov.eigenvalues) - cov.tau_inv) / np.sqrt(cov.d)


def test_nonconfounding(cov: CovarianceModel, normals: NDArray[np.float64]) -> TestResult:
    """One-sided Monte-Carlo test of no confounding on a fitted covariance model.

    Computes the regression direction, evaluates the statistic, maps each
    row of the (count, d) standard-normal block ``normals`` (overwritten)
    to a sample of the exact sphere null and returns the add-one
    upper-tail p-value (1 + #{null >= observed}) / (1 + count), which is
    valid and never exactly zero.  A null draw within the statistic's
    rounding, sqrt(d) eps (1/lambda_min + tau), below the observed value
    counts as >= it, so a flat spectrum, where every statistic is rounding
    noise around 0, gives p = 1.
    """
    t_obs = statistic_T(direction_coords(cov), cov)
    null = null_samples_sphere(cov, normals)
    rounding = np.sqrt(cov.d) * np.finfo(float).eps * (1.0 / cov.eigenvalues.min() + cov.tau_inv)
    p = (1 + int(np.sum(null >= t_obs - rounding))) / (1 + null.size)
    return TestResult(t_observed=t_obs, p_value=p)
