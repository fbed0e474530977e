"""Spectral likelihood of regression directions and confounding-strength estimation.

The core quantity is the density, relative to the uniform measure on the
sphere, of the normalized regression vector under the confounding model with
scale ratio theta = sigma_c^2 / sigma_a^2.  With R_theta = I + theta *
sigma_xx^{-1} the direction is distributed as sqrt(R_theta) b / ||.|| for an
isotropic Gaussian b, and the change-of-variables density on the sphere is

    p_theta(v) = 1 / ( sqrt(det R_theta) * <v, R_theta^{-1} v>^{d/2} ),

so log p_theta(v) = -1/2 [ log det R_theta + d log <v, R_theta^{-1} v> ].

Maximizing this one-dimensional likelihood in theta and mapping through
tau(sigma_xx^{-1}) gives the confounding-strength estimate beta_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NumericOverflowError, SingularMatrixError
from .spectral import CovarianceModel, UnitDirection, regression_vector, unit_direction

# Scan-grid geometry for the likelihood maximization.  The grid spans
# [GRID_LO, GRID_HI] times the median eigenvalue, which makes it covariant
# under global rescaling of the predictors.
GRID_LO = 1e-6
GRID_HI = 1e6
GRID_POINTS = 200
GOLDEN_REL_TOL = 1e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ThetaEstimate:
    """Result of the one-dimensional likelihood maximization."""

    theta: float
    loglik: float
    boundary: bool


@dataclass(frozen=True)
class BetaEstimate:
    """Output of the confounding-strength estimator.

    ``beta_hat`` equals ``tau_inv * theta_hat / (tau_inv * theta_hat + 1)``
    exactly as stored.
    """

    theta_hat: float
    beta_hat: float
    tau_inv: float
    boundary: bool


def log_direction_density(
    theta: float | NDArray[np.float64], direction: UnitDirection, cov: CovarianceModel
) -> float | NDArray[np.float64]:
    """Log density of the direction under scale ratio ``theta``.

    Evaluated in the eigenbasis: with w the eigenbasis coordinates of the
    direction and r_j = 1 + theta/lambda_j,

        -1/2 [ sum_j log r_j + d * log sum_j w_j^2 / r_j ].

    A scalar ``theta`` gives a float; an array gives an array of its shape,
    each element equal to the scalar call.  Exactly 0.0 where theta = 0 (the
    density is uniform there).

    Raises
    ------
    NumericOverflowError
        If theta / lambda_min is not finite.
    """
    t = np.asarray(theta, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("theta must be nonnegative")
    r = 1.0 + t[..., None] / cov.eigenvalues
    if not np.all(np.isfinite(r)):
        raise NumericOverflowError("theta / lambda_min overflowed")
    w = direction.coords_in(cov)
    log_det = np.sum(np.log(r), axis=-1)
    val = -0.5 * (log_det + cov.d * np.log(np.sum(w * w / r, axis=-1)))
    val = np.where(t == 0.0, 0.0, val)
    return float(val) if val.ndim == 0 else val


def direction_density(
    a_matrix: NDArray[np.float64], direction: UnitDirection
) -> float:
    """Density on the sphere of v -> Av/||Av|| applied to a uniform direction.

    Returns |1 / (det(A) * ||A^{-1} v||^d)|; the absolute value of the
    determinant is used since a density must be nonnegative.

    Raises
    ------
    SingularMatrixError
        If A has condition number >= 1e12.
    """
    a = np.asarray(a_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= 1e12:
        raise SingularMatrixError("matrix is singular or too ill-conditioned")
    d = a.shape[0]
    inv_v = np.linalg.solve(a, direction.v)
    det = abs(float(np.linalg.det(a)))
    return 1.0 / (det * float(np.linalg.norm(inv_v)) ** d)


def _golden_section_max(f, lo: float, hi: float):
    """Golden-section search for the maximum of a unimodal f on [lo, hi].

    Returns (x, f(x)), the best point evaluated: each step drops only a
    point no better than one it keeps, so the best is one of the last two.
    Ties prefer the smaller abscissa.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = f(c)
    fd = f(d)
    while (hi - lo) > GOLDEN_REL_TOL * max(abs(hi), 1e-300):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def estimate_theta(direction: UnitDirection, cov: CovarianceModel) -> ThetaEstimate:
    """Maximize the direction log-likelihood over theta >= 0.

    Coarse scan over {0} union a logarithmic grid spanning
    [1e-6, 1e6] x median(lambda), scored in one call, then golden-section
    refinement on the bracketing interval.  The answer is the better of the
    best grid point and the golden result, ties toward smaller theta, so
    theta = 0 is always a candidate.  ``boundary`` is set when the maximum
    sits at the upper end of the scan range.
    """
    lam_med = float(np.median(cov.eigenvalues))
    grid = np.concatenate(
        [[0.0], np.geomspace(GRID_LO * lam_med, GRID_HI * lam_med, GRID_POINTS)]
    )
    vals = log_direction_density(grid, direction, cov)
    best = int(np.argmax(vals))  # first index on ties -> smaller theta
    candidates = [(grid[best], vals[best])]
    lo = grid[best - 1] if best > 0 else 0.0
    hi = grid[best + 1] if best < len(grid) - 1 else grid[-1]
    if hi > lo:
        refined = _golden_section_max(
            lambda theta: log_direction_density(theta, direction, cov), lo, hi
        )
        candidates.append(refined)
    theta_hat, loglik = min(candidates, key=lambda p: (-p[1], p[0]))
    boundary = bool(theta_hat >= grid[-1] * (1.0 - 1e-9))
    return ThetaEstimate(theta=float(theta_hat), loglik=float(loglik), boundary=boundary)


def beta_from_theta(theta: float, cov: CovarianceModel) -> float:
    """Map the scale ratio to confounding strength via the renormalized trace.

    beta = tau(sigma_xx^{-1}) * theta / (tau(sigma_xx^{-1}) * theta + 1);
    0 at theta = 0, monotone increasing, always < 1 for finite theta.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return cov.tau_inv * theta / (cov.tau_inv * theta + 1.0)


def estimate_confounding(cov: CovarianceModel) -> BetaEstimate:
    """Regression direction -> theta -> beta on a fitted covariance model.

    Raises ZeroSignalError (no direction) or NumericOverflowError (theta).
    """
    direction = unit_direction(regression_vector(cov), cov)
    theta_est = estimate_theta(direction, cov)
    return BetaEstimate(
        theta_hat=theta_est.theta,
        beta_hat=beta_from_theta(theta_est.theta, cov),
        tau_inv=cov.tau_inv,
        boundary=theta_est.boundary,
    )


def concentrated_loglik(
    theta: float,
    theta_prime: float,
    cov: CovarianceModel,
    *,
    corrected: bool = False,
) -> float:
    """Concentrated value of the log-likelihood of theta under data from theta'.

    With r_j = 1 + theta/lambda_j and r'_j = 1 + theta'/lambda_j, the default
    form is

        1/2 [ log det R_theta - log( tau(R_theta' R_theta^{-1}) / tau(R_theta') ) ].

    ``corrected=True`` evaluates

        -1/2 [ log det R_theta + d * log( tau(R_theta' R_theta^{-1}) / tau(R_theta') ) ],

    which substitutes the concentrating averages into the direction
    log-density itself.  The empirical mean of ``log_direction_density``
    over directions drawn at theta' approaches this corrected form for large
    d, not the default one; the spread of that log density grows like
    sqrt(d), so it concentrates per dimension (see ``concentration_bound``).
    """
    if theta < 0 or theta_prime < 0:
        raise ValueError("theta values must be nonnegative")
    lam = cov.eigenvalues
    r = 1.0 + theta / lam
    rp = 1.0 + theta_prime / lam
    log_det = float(np.sum(np.log(r)))
    log_tau_ratio = math.log(float(np.mean(rp / r))) - math.log(float(np.mean(rp)))
    if corrected:
        return -0.5 * (log_det + cov.d * log_tau_ratio)
    return 0.5 * (log_det - log_tau_ratio)


def concentration_bound(
    theta: float,
    theta_prime: float,
    cov: CovarianceModel,
    epsilon: float,
    *,
    variant: str = "default",
) -> float:
    """Lower bound on the probability that the log-likelihood is near its
    concentrated value.

    ``variant="default"``:
        1 - (1/(d eps^2)) ( tau(R^2 R'^{-2}) / tau(R R')^2 + tau(R'^2) / tau(R')^2 )
    ``variant="conservative"`` (larger constant, transposed ratio):
        1 - (4/(d eps^2)) ( tau(R'^2 R^{-2}) / tau(R' R)^2 + tau(R'^2) / tau(R')^2 )

    The bound may be negative (vacuous); it is returned raw and only clamped
    at reporting time.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lam = cov.eigenvalues
    r = 1.0 + theta / lam
    rp = 1.0 + theta_prime / lam
    tau = lambda x: float(np.mean(x))
    second = tau(rp**2) / tau(rp) ** 2
    if variant == "default":
        first = tau(r**2 / rp**2) / tau(r * rp) ** 2
        factor = 1.0
    elif variant == "conservative":
        first = tau(rp**2 / r**2) / tau(rp * r) ** 2
        factor = 4.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return 1.0 - factor / (cov.d * epsilon**2) * (first + second)
