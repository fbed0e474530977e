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
from .spectral import CovarianceModel, _unit, direction_coords

# Likelihood maximization.  The scan grid spans [GRID_LO, GRID_HI] times the
# median eigenvalue, which makes it covariant under global rescaling of the
# predictors; Newton steps refine its best point to within REFINE_REL_TOL.
GRID_LO = 1e-6
GRID_HI = 1e6
GRID_POINTS = 200
REFINE_REL_TOL = 1e-13


@dataclass(frozen=True)
class BetaEstimate:
    """Output of the confounding-strength estimator.

    ``beta_hat`` is ``beta_from_theta(theta_hat, cov)`` exactly as stored;
    ``loglik`` is the log density at ``theta_hat``.
    """

    theta_hat: float
    beta_hat: float
    loglik: float
    boundary: bool


def _check_theta(*thetas: float | NDArray[np.float64]) -> None:
    """Raise ValueError unless every theta is >= 0 and finite; NaN fails."""
    for theta in thetas:
        if not np.all(np.isfinite(theta) & (np.asarray(theta) >= 0)):
            raise ValueError("theta must be nonnegative and finite")


def log_direction_density(
    theta: float | NDArray[np.float64], u: NDArray[np.float64], cov: CovarianceModel
) -> float | NDArray[np.float64]:
    """Log density under scale ratio ``theta`` of the direction with unit
    eigenbasis coordinates ``u`` (see ``direction_coords``).

    With r_j = 1 + theta/lambda_j,

        -1/2 [ sum_j log r_j + d * log sum_j u_j^2 / r_j ].

    A scalar ``theta`` gives a float; an array gives an array of its shape,
    each element equal to the scalar call.  Exactly 0.0 where theta = 0 (the
    density is uniform there).

    Raises
    ------
    ValueError
        If theta is negative or NaN, or ``u`` is not a unit vector.
    NumericOverflowError
        If theta / lambda_min is not finite.
    """
    t = np.asarray(theta, dtype=np.float64)
    _check_theta(t)
    u = _unit(u)
    r = 1.0 + t[..., None] / cov.eigenvalues
    if not np.all(np.isfinite(r)):
        raise NumericOverflowError("theta / lambda_min overflowed")
    log_det = np.sum(np.log(r), axis=-1)
    val = -0.5 * (log_det + cov.d * np.log(np.sum(u * u / r, axis=-1)))
    val = np.where(t == 0.0, 0.0, val)
    return float(val) if val.ndim == 0 else val


def direction_density(a_matrix: NDArray[np.float64], v: NDArray[np.float64]) -> float:
    """Density at the unit vector ``v`` of x -> Ax/||Ax|| applied to a uniform direction.

    Returns |1 / (det(A) * ||A^{-1} v||^d)|; the absolute value of the
    determinant is used since a density must be nonnegative.

    Raises
    ------
    ValueError
        If A is not square or ``v`` is not a unit vector.
    SingularMatrixError
        If A has condition number >= 1e12.
    """
    v = _unit(v)
    a = np.asarray(a_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= 1e12:
        raise SingularMatrixError("matrix is singular or too ill-conditioned")
    d = a.shape[0]
    inv_v = np.linalg.solve(a, v)
    det = abs(float(np.linalg.det(a)))
    return 1.0 / (det * float(np.linalg.norm(inv_v)) ** d)


def _newton(theta: float, u2: NDArray[np.float64], lam: NDArray[np.float64]) -> tuple[bool, float]:
    """Whether the log-likelihood rises at ``theta``, and the Newton step -l'/l'' there.

    With w_j = u_j^2 lambda_j, S_k = sum_j w_j/(lambda_j+theta)^k and A_k =
    sum_j (lambda_j+theta)^-k: 2 l' = d S_2/S_1 - A_1 and 2 l'' = A_2 +
    d (S_2^2/S_1^2 - 2 S_3/S_1).  At theta = 0 the slope is 1/2 d^{3/2} T,
    so the sign is that of ``statistic_T``.  Above every lambda_j the two
    terms of l' cancel to leading order; there 2 l' is summed as sum_j (d p_j
    - 1) (1/(lambda_j+theta) - 1/theta), with p_j = w_j/((lambda_j+theta) S_1).
    The two sums agree, as sum_j (d p_j - 1) = 0, and each term of the second
    is the smaller.  The step is NaN where l'' >= 0 and, being a Python
    float, inf without a warning where it overflows.
    """
    q = u2 / (1.0 + theta / lam)  # w_j / (lambda_j + theta)
    inv = 1.0 / (lam + theta)
    d, s1, s2, a1 = lam.size, float(q.sum()), float(q.dot(inv)), float(inv.sum())
    t = inv / a1  # in units of A_1 no power of 1/(lambda_j + theta) overflows
    m1, m2 = s2 / (a1 * s1), float(q.dot(t * t)) / s1
    curvature = float(t.dot(t)) + d * (m1 * m1 - 2.0 * m2)  # 2 l'' / A_1^2
    rising, slope = d * s2 > a1 * s1, d * m1 - 1.0  # slope: 2 l' / A_1
    if theta > lam[0]:  # lam descends; 1/(lambda_j+theta) - 1/theta = -lambda_j inv_j/theta
        slope = float((d * q / s1 - 1.0).dot(lam * t)) / -theta
        rising = slope > 0.0
    step = -slope / curvature / a1 if curvature < 0.0 else math.nan
    return rising, step


def estimate_theta(u: NDArray[np.float64], cov: CovarianceModel) -> BetaEstimate:
    """Maximize over theta >= 0 the log-likelihood of the direction with unit
    eigenbasis coordinates ``u``, and map the maximizer to beta.

    Scores {0} union a logarithmic grid spanning [1e-6, 1e6] x median(lambda)
    in one call.  Where the slope does not rise at the lower end of the
    bracket around the best grid point, or still rises at its upper end, that
    end is the refined point, so a likelihood that falls from theta = 0 gives
    exactly 0.  Otherwise each step from the best grid point shrinks the
    bracket on the slope's sign and takes a Newton step, or the midpoint where
    that would leave the bracket or l'' >= 0, until the bracket or the step is
    within REFINE_REL_TOL of its upper end.  The answer is the better of the
    best grid point and the refined point, ties toward smaller theta.  A
    gain over l(0) = 0 of at most d eps (1 + sum_j log(1 + theta/lambda_j)),
    the rounding of the two terms the log-density cancels, is a tie with
    theta = 0, so a flat likelihood (an isotropic spectrum) gives exactly 0.
    ``boundary`` is set when the maximum sits at the upper end of the scan
    range.  A ``u`` that is not a unit vector is a ValueError.
    """
    u = _unit(u)
    lam = cov.eigenvalues
    lam_med = float(np.median(lam))
    grid = np.concatenate(
        [[0.0], np.geomspace(GRID_LO * lam_med, GRID_HI * lam_med, GRID_POINTS)]
    )
    vals = log_direction_density(grid, u, cov)
    best = int(np.argmax(vals))  # first index on ties -> smaller theta
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])
    u2 = u**2
    if not _newton(lo, u2, lam)[0]:
        hi = lo
    elif _newton(hi, u2, lam)[0]:
        lo = hi
    theta = float(grid[best]) if lo < grid[best] < hi else 0.5 * (lo + hi)
    while hi - lo > REFINE_REL_TOL * hi:
        rising, step = _newton(theta, u2, lam)
        lo, hi = (theta, hi) if rising else (lo, theta)
        if abs(step) <= REFINE_REL_TOL * hi:
            break
        theta = theta + step if lo < theta + step < hi else 0.5 * (lo + hi)  # NaN: midpoint
    candidates = [(grid[best], vals[best])]
    candidates.append((theta, log_direction_density(theta, u, cov)))
    theta_hat, loglik = min(candidates, key=lambda p: (-p[1], p[0]))
    theta_hat = float(theta_hat)
    # the log-density's two terms cancel; a gain over l(0) = 0 within their rounding is a tie
    if loglik <= lam.size * np.finfo(float).eps * (1.0 + float(np.sum(np.log1p(theta_hat / lam)))):
        theta_hat, loglik = 0.0, 0.0
    boundary = bool(theta_hat >= grid[-1] * (1.0 - 1e-9))
    return BetaEstimate(theta_hat, beta_from_theta(theta_hat, cov), float(loglik), boundary)


def beta_from_theta(theta: float, cov: CovarianceModel) -> float:
    """Map the scale ratio to confounding strength via the renormalized trace.

    beta = tau(sigma_xx^{-1}) * theta / (tau(sigma_xx^{-1}) * theta + 1);
    0 at theta = 0, monotone increasing, always < 1 for finite theta.
    """
    _check_theta(theta)
    return cov.tau_inv * theta / (cov.tau_inv * theta + 1.0)


def estimate_confounding(cov: CovarianceModel) -> BetaEstimate:
    """Regression direction -> theta -> beta on a fitted covariance model.

    Raises ZeroSignalError (no direction) or NumericOverflowError (theta).
    """
    return estimate_theta(direction_coords(cov), cov)


def concentrated_loglik(theta: float, theta_prime: float, cov: CovarianceModel) -> float:
    """Concentrated value of the log-likelihood of theta under data from theta'.

    With r_j = 1 + theta/lambda_j and r'_j = 1 + theta'/lambda_j, this is

        -1/2 [ log det R_theta + d * log( tau(R_theta' R_theta^{-1}) / tau(R_theta') ) ],

    the direction log-density with its concentrating averages substituted.
    The empirical mean of ``log_direction_density`` over directions drawn at
    theta' approaches it for large d; the spread of that log density grows
    like sqrt(d), so it concentrates per dimension (see
    ``concentration_bound``).
    """
    _check_theta(theta, theta_prime)
    lam = cov.eigenvalues
    r = 1.0 + theta / lam
    rp = 1.0 + theta_prime / lam
    log_det = float(np.sum(np.log(r)))
    log_tau_ratio = math.log(float(np.mean(rp / r))) - math.log(float(np.mean(rp)))
    return -0.5 * (log_det + cov.d * log_tau_ratio)


def concentration_bound(
    theta: float,
    theta_prime: float,
    cov: CovarianceModel,
    epsilon: float,
) -> float:
    """Lower bound on the probability that the log-likelihood is near its
    concentrated value:

        1 - (1/(d eps^2)) ( tau(R^2 R'^{-2}) / tau(R R')^2 + tau(R'^2) / tau(R')^2 )

    The bound may be negative (vacuous); it is returned raw and only clamped
    at reporting time.
    """
    _check_theta(theta, theta_prime)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lam = cov.eigenvalues
    r = 1.0 + theta / lam
    rp = 1.0 + theta_prime / lam
    tau = lambda x: float(np.mean(x))
    first = tau(r**2 / rp**2) / tau(r * rp) ** 2
    second = tau(rp**2) / tau(rp) ** 2
    return 1.0 - (first + second) / (cov.d * epsilon**2)
