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

from .errors import NumericError
from .spectral import CovarianceModel, _dot, _unit, direction_coords

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
    ``loglik`` is the log density at ``theta_hat``.  Of a stack of R models
    each field is an (R,) array, one estimate per model.
    """

    theta_hat: float | NDArray[np.float64]
    beta_hat: float | NDArray[np.float64]
    loglik: float | NDArray[np.float64]
    boundary: bool | NDArray[np.bool_]


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
        If theta is negative or NaN, or ``u`` is not a unit vector of the
        model's shape.
    NumericError
        If theta / lambda_min is not finite.
    """
    t = np.asarray(theta, dtype=np.float64)
    _check_theta(t)
    u = _unit(u, cov.eigenvalues.shape)
    val = _log_density(t, u * u, cov.eigenvalues)
    return float(val) if val.ndim == 0 else val


def _log_density(
    t: NDArray[np.float64], u2: NDArray[np.float64], lam: NDArray[np.float64]
) -> NDArray[np.float64]:
    """``log_direction_density`` at the thetas ``t`` of squared coordinates ``u2``.

    ``u2`` and ``lam`` broadcast against ``t[..., None]``: (d,) for any
    ``t``, or (R, 1, d) for a stack's (R, k) thetas, row by row.
    """
    r = 1.0 + t[..., None] / lam
    if not np.all(np.isfinite(r)):
        raise NumericError("theta / lambda_min overflowed")
    log_det = np.sum(np.log(r), axis=-1)
    val = -0.5 * (log_det + lam.shape[-1] * np.log(np.sum(u2 / r, axis=-1)))
    return np.where(t == 0.0, 0.0, val)


def direction_density(a_matrix: NDArray[np.float64], v: NDArray[np.float64]) -> float:
    """Density at the unit vector ``v`` of x -> Ax/||Ax|| applied to a uniform direction.

    Returns |1 / (det(A) * ||A^{-1} v||^d)|; the absolute value of the
    determinant is used since a density must be nonnegative.

    Raises
    ------
    ValueError
        If A is not square or ``v`` is not a unit vector of its length.
    NumericError
        If A has condition number >= 1e12.
    """
    a = np.asarray(a_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    v = _unit(v, a.shape[:1])
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= 1e12:
        raise NumericError("matrix is singular or too ill-conditioned")
    d = a.shape[0]
    inv_v = np.linalg.solve(a, v)
    det = abs(float(np.linalg.det(a)))
    return 1.0 / (det * float(np.linalg.norm(inv_v)) ** d)


def _newton(
    theta: NDArray[np.float64], u2: NDArray[np.float64], lam: NDArray[np.float64]
) -> tuple[NDArray[np.bool_], NDArray[np.float64]]:
    """Whether the log-likelihood rises at each ``theta`` (k,), and the Newton step -l'/l'' there.

    Row i has squared coordinates ``u2[i]`` and eigenvalues ``lam[i]``.  With
    w_j = u_j^2 lambda_j, S_k = sum_j w_j/(lambda_j+theta)^k and A_k =
    sum_j (lambda_j+theta)^-k: 2 l' = d S_2/S_1 - A_1 and 2 l'' = A_2 +
    d (S_2^2/S_1^2 - 2 S_3/S_1).  At theta = 0 the slope is 1/2 d^{3/2} T,
    so the sign is that of ``statistic_T``.  Above every lambda_j the two
    terms of l' cancel to leading order; there 2 l' is summed as sum_j (d p_j
    - 1) (1/(lambda_j+theta) - 1/theta), with p_j = w_j/((lambda_j+theta) S_1).
    The two sums agree, as sum_j (d p_j - 1) = 0, and each term of the second
    is the smaller.  The step is NaN where l'' >= 0, and inf where it overflows.
    """
    d = lam.shape[-1]
    q = u2 / (1.0 + theta[:, None] / lam)  # w_j / (lambda_j + theta)
    inv = 1.0 / (lam + theta[:, None])
    s1, s2, a1 = q.sum(axis=-1), _dot(q, inv), inv.sum(axis=-1)
    t = inv / a1[:, None]  # in units of A_1 no power of 1/(lambda_j + theta) overflows
    m1, m2 = s2 / (a1 * s1), _dot(q, t * t) / s1
    curvature = _dot(t, t) + d * (m1 * m1 - 2.0 * m2)  # 2 l'' / A_1^2
    above = theta > lam[:, 0]  # lam descends; 1/(lambda_j+theta) - 1/theta = -lambda_j inv_j/theta
    # each form is taken only where it holds; the other may divide by theta = 0 or l'' = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.where(above, _dot(d * q / s1[:, None] - 1.0, lam * t) / -theta,
                         d * m1 - 1.0)  # 2 l' / A_1
        step = np.where(curvature < 0.0, -slope / curvature / a1, np.nan)
    return np.where(above, slope > 0.0, d * s2 > a1 * s1), step


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
    range.  A ``u`` that is not a unit vector of the model's shape is a
    ValueError.

    Of a stack, ``u`` holds a row per model.  Every row scores its own grid
    in one (R, 201, d) array and is refined by Newton steps while its
    bracket is open, so each row gets, bit for bit, the result it gets alone.
    """
    shape = cov.eigenvalues.shape
    u = _unit(u, shape).reshape(-1, shape[-1])
    lam = cov.eigenvalues.reshape(u.shape)
    rows = np.arange(len(u))
    lam_med = np.median(lam, axis=-1)
    grid = np.concatenate(
        [np.zeros((len(u), 1)),
         np.geomspace(GRID_LO * lam_med, GRID_HI * lam_med, GRID_POINTS, axis=-1)],
        axis=-1,
    )
    u2 = u * u
    vals = _log_density(grid, u2[:, None, :], lam[:, None, :])
    best = np.argmax(vals, axis=-1)  # first index on ties -> smaller theta
    at_best, val_best = grid[rows, best], vals[rows, best]
    lo = grid[rows, np.maximum(best - 1, 0)]
    hi = grid[rows, np.minimum(best + 1, GRID_POINTS)]
    rising_lo, rising_hi = _newton(lo, u2, lam)[0], _newton(hi, u2, lam)[0]
    lo, hi = np.where(rising_lo & rising_hi, hi, lo), np.where(rising_lo, hi, lo)
    theta = np.where((lo < at_best) & (at_best < hi), at_best, 0.5 * (lo + hi))
    todo = np.flatnonzero(hi - lo > REFINE_REL_TOL * hi)
    with np.errstate(invalid="ignore"):  # a NaN step compares false
        while todo.size:
            now = theta[todo]
            rising, step = _newton(now, u2[todo], lam[todo])
            lo[todo] = np.where(rising, now, lo[todo])
            hi[todo] = np.where(rising, hi[todo], now)
            done = np.abs(step) <= REFINE_REL_TOL * hi[todo]
            new = now + step
            inside = (lo[todo] < new) & (new < hi[todo])  # NaN: midpoint
            theta[todo] = np.where(done, now, np.where(inside, new, 0.5 * (lo[todo] + hi[todo])))
            todo = todo[~done & (hi[todo] - lo[todo] > REFINE_REL_TOL * hi[todo])]
    refined = _log_density(theta[:, None], u2[:, None, :], lam[:, None, :])[:, 0]
    grid_wins = (val_best > refined) | ((val_best == refined) & (at_best <= theta))
    theta_hat = np.where(grid_wins, at_best, theta)
    loglik = np.where(grid_wins, val_best, refined)
    # the log-density's two terms cancel; a gain over l(0) = 0 within their rounding is a tie
    tie = loglik <= lam.shape[-1] * np.finfo(float).eps * (
        1.0 + np.sum(np.log1p(theta_hat[:, None] / lam), axis=-1))
    theta_hat, loglik = np.where(tie, 0.0, theta_hat), np.where(tie, 0.0, loglik)
    boundary = theta_hat >= grid[:, -1] * (1.0 - 1e-9)
    theta_hat, loglik, boundary = (x.reshape(shape[:-1]) for x in (theta_hat, loglik, boundary))
    est = (theta_hat, beta_from_theta(theta_hat, cov), loglik, boundary)
    return BetaEstimate(*(est if boundary.ndim else (x.item() for x in est)))


def beta_from_theta(
    theta: float | NDArray[np.float64], cov: CovarianceModel
) -> float | NDArray[np.float64]:
    """Map the scale ratio to confounding strength via the renormalized trace.

    beta = tau(sigma_xx^{-1}) * theta / (tau(sigma_xx^{-1}) * theta + 1);
    0 at theta = 0, monotone increasing, always < 1 for finite theta.  On a
    stack, ``theta`` holds one value per model.
    """
    _check_theta(theta)
    return cov.tau_inv * theta / (cov.tau_inv * theta + 1.0)


def estimate_confounding(cov: CovarianceModel) -> BetaEstimate:
    """Regression direction -> theta -> beta on a fitted covariance model, or
    on each model of a stack.

    Raises ZeroSignalError (no direction) or NumericError (theta).
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
