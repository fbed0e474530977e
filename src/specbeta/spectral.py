"""Covariance computation and dense symmetric spectral decomposition.

Turns raw (X, y) samples into the sufficient statistic used everywhere else:
the predictor covariance, its eigendecomposition, the cross-covariance and
the regression direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NumericOverflowError,
    RankDeficientError,
    TooFewSamplesError,
    ZeroSignalError,
)

# Relative eigenvalue threshold below which the covariance is treated as
# rank deficient.  Below this the inverse-covariance terms of the likelihood
# are numerically meaningless.
RANK_EPS = 1e-10
ZERO_SIGNAL_EPS = 1e-12  # relative cross-covariance norm of a signal-free target
# Below this norm a vector's squares may have lost digits to underflow.
_SAFE_NORM = np.sqrt(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class DataMatrix:
    """Raw observational input: n samples of a d-dimensional predictor and a scalar target.

    Parameters
    ----------
    x : ndarray, shape (n, d)
        Predictor samples, one row per sample.
    y : ndarray, shape (n,)
        Target samples.
    """

    x: NDArray[np.float64]
    y: NDArray[np.float64]

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        n, d = x.shape
        if n < 2 or d < 1:
            raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if y.shape[0] != n:
            raise ValueError(f"x has {n} rows but y has {y.shape[0]} entries")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("non-finite entries in data")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class CovarianceModel:
    """Predictor covariance, cross-covariance and the spectral decomposition.

    Eigenvalues are sorted descending, paired with the eigenvector columns;
    ``tau_inv`` = mean(1/eigenvalues); ``n`` = sample count (0 if analytic).
    """

    sigma_xx: NDArray[np.float64]
    sigma_xy: NDArray[np.float64]
    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.float64]
    tau_inv: float
    d: int
    n: int = 0

    @classmethod
    def from_matrices(
        cls,
        sigma_xx: NDArray[np.float64],
        sigma_xy: NDArray[np.float64],
        n: int = 0,
    ) -> "CovarianceModel":
        """Build the model from a covariance matrix and cross-covariance vector.

        The matrix is symmetrized as (S + S^T)/2 before the self-adjoint
        eigendecomposition, which guards against round-off asymmetry.

        Raises
        ------
        RankDeficientError
            If the smallest eigenvalue is <= RANK_EPS times the largest.
        """
        s = np.asarray(sigma_xx, dtype=np.float64)
        sxy = np.asarray(sigma_xy, dtype=np.float64).reshape(-1)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"sigma_xx must be square, got shape {s.shape}")
        d = s.shape[0]
        if sxy.shape[0] != d:
            raise ValueError("sigma_xy length does not match sigma_xx")
        s = 0.5 * s + 0.5 * s.T  # halved first, so that no finite sum overflows
        lam, vec = np.linalg.eigh(s)
        # eigh returns ascending order
        lam = lam[::-1].copy()
        vec = vec[:, ::-1].copy()
        if lam[-1] <= RANK_EPS * lam[0]:
            raise RankDeficientError(
                f"smallest eigenvalue {lam[-1]:.3e} is below "
                f"{RANK_EPS:.0e} x largest ({lam[0]:.3e})"
            )
        return cls(
            sigma_xx=s,
            sigma_xy=sxy,
            eigenvalues=lam,
            eigenvectors=vec,
            tau_inv=float(np.mean(1.0 / lam)),
            d=d,
            n=n,
        )


def empirical_covariance(data: DataMatrix) -> CovarianceModel:
    """Column-mean-centered empirical covariances, normalized by 1/n.

    The model, and its zero-signal rule, come from covariance_from_moments.

    Raises
    ------
    TooFewSamplesError
        If n <= d.
    NumericOverflowError
        If a moment overflows.
    RankDeficientError
        If the empirical covariance is numerically singular.
    """
    n = data.n
    with np.errstate(over="ignore", invalid="ignore"):  # checked by covariance_from_moments
        xc = data.x - data.x.mean(axis=0)
        yc = data.y - data.y.mean()
        moments = (xc.T @ xc) / n, (xc.T @ yc) / n, yc @ yc / n
    return covariance_from_moments(*moments, n)


def covariance_from_moments(
    sigma_xx: NDArray[np.float64],
    sigma_xy: NDArray[np.float64],
    sigma_yy: float,
    n: int,
) -> CovarianceModel:
    """Model from the centered second moments of n samples, normalized by 1/n.

    A cross-covariance of norm <= ZERO_SIGNAL_EPS * sqrt(sigma_yy * tr sigma_xx)
    is stored as exact zeros: the target is constant up to rounding.  Both
    sides are computed without overflow for any finite moments.

    Raises
    ------
    TooFewSamplesError
        If n <= d.
    NumericOverflowError
        If a moment is not finite.
    RankDeficientError
        If the covariance is numerically singular.
    """
    d = sigma_xy.shape[0]
    if n <= d:
        raise TooFewSamplesError(f"need n > d, got n={n}, d={d}")
    if not (np.isfinite(sigma_yy) and np.isfinite(sigma_xy).all() and np.isfinite(sigma_xx).all()):
        raise NumericOverflowError("second moments overflow: the data are too large in scale")
    # sigma_xy is scaled by its largest entry before it is squared, tr sigma_xx
    # is summed in units of d and ZERO_SIGNAL_EPS is applied first, so that no
    # square, sum or product of finite moments overflows.
    top = np.abs(sigma_xy).max()
    norm = top * np.linalg.norm(sigma_xy / top) if top > 0.0 else 0.0
    root_trace = np.sqrt(d) * np.sqrt(np.sum(np.diagonal(sigma_xx) / d))
    if norm <= ZERO_SIGNAL_EPS * np.sqrt(sigma_yy) * root_trace:
        sigma_xy = np.zeros(d)
    return CovarianceModel.from_matrices(sigma_xx, sigma_xy, n=n)


def regression_vector(cov: CovarianceModel) -> NDArray[np.float64]:
    """Population least-squares coefficients sigma_xx^{-1} sigma_xy.

    Solved in the stored eigenbasis rather than by inverting the raw matrix.

    Raises
    ------
    ZeroSignalError
        If the cross-covariance is exactly zero.
    """
    if not np.any(cov.sigma_xy):
        raise ZeroSignalError("sigma_xy is zero; the target carries no signal")
    w = cov.eigenvectors.T @ cov.sigma_xy
    return cov.eigenvectors @ (w / cov.eigenvalues)


def unit_direction(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """``v`` divided by its norm.

    The norm squares the entries, so where that over- or underflows, ``v`` is
    first divided by its largest entry in absolute value.

    Raises
    ------
    ZeroSignalError
        On zero input.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore"):  # an infinite norm is taken again below
        norm = np.linalg.norm(v)
    if not _SAFE_NORM <= norm < np.inf:
        largest = np.max(np.abs(v), initial=0.0)
        if largest == 0.0:
            raise ZeroSignalError("cannot normalize the zero vector")
        v = v / largest
        norm = np.linalg.norm(v)
    return v / norm


def direction_coords(cov: CovarianceModel) -> NDArray[np.float64]:
    """Eigenbasis coordinates u of the unit regression direction: all that the
    estimator and the test read from the data.  ZeroSignalError on zero sigma_xy.
    """
    return cov.eigenvectors.T @ unit_direction(regression_vector(cov))


def _unit(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """``u`` as a 1-D float array; ValueError unless its length is 1 to within 1e-12."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
        raise ValueError("direction is not unit length")
    return u
