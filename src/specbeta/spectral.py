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
    RankDeficientError,
    TooFewSamplesError,
    ZeroSignalError,
)

# Relative eigenvalue threshold below which the covariance is treated as
# rank deficient.  Below this the inverse-covariance terms of the likelihood
# are numerically meaningless.
RANK_EPS = 1e-10
ZERO_SIGNAL_EPS = 1e-12  # relative cross-covariance norm of a signal-free target


@dataclass(frozen=True)
class DataMatrix:
    """Raw observational input: n samples of a d-dimensional predictor and a scalar target.

    Parameters
    ----------
    x : ndarray, shape (n, d)
        Predictor samples, one row per sample.
    y : ndarray, shape (n,)
        Target samples.
    column_names : sequence of str, optional
        Names for the d predictor columns.
    """

    x: NDArray[np.float64]
    y: NDArray[np.float64]
    column_names: tuple[str, ...] | None = None

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
        if self.column_names is not None and len(self.column_names) != d:
            raise ValueError("column_names length does not match d")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.column_names is not None:
            object.__setattr__(self, "column_names", tuple(self.column_names))

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
        s = 0.5 * (s + s.T)
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


@dataclass(frozen=True)
class UnitDirection:
    """A unit vector, optionally with cached coordinates in an eigenbasis."""

    v: NDArray[np.float64]
    basis_coords: NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=np.float64).reshape(-1)
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("direction is not unit length")
        object.__setattr__(self, "v", v)

    def coords_in(self, cov: CovarianceModel) -> NDArray[np.float64]:
        """Coordinates of the direction in the eigenbasis of ``cov``."""
        if self.basis_coords is not None:
            return self.basis_coords
        return cov.eigenvectors.T @ self.v


def empirical_covariance(data: DataMatrix) -> CovarianceModel:
    """Column-mean-centered empirical covariances, normalized by 1/n.

    A cross-covariance of norm <= ZERO_SIGNAL_EPS * sd(y) * sqrt(tr sigma_xx)
    is stored as exact zeros: the target is constant up to rounding.

    Raises
    ------
    TooFewSamplesError
        If n <= d.
    RankDeficientError
        If the empirical covariance is numerically singular.
    """
    n, d = data.n, data.d
    if n <= d:
        raise TooFewSamplesError(f"need n > d, got n={n}, d={d}")
    xc = data.x - data.x.mean(axis=0)
    yc = data.y - data.y.mean()
    sigma_xx = (xc.T @ xc) / n
    sigma_xy = (xc.T @ yc) / n
    scale = np.sqrt(yc @ yc / n * np.trace(sigma_xx))
    if np.linalg.norm(sigma_xy) <= ZERO_SIGNAL_EPS * scale:
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
    if np.linalg.norm(cov.sigma_xy) == 0.0:
        raise ZeroSignalError("sigma_xy is zero; the target carries no signal")
    w = cov.eigenvectors.T @ cov.sigma_xy
    return cov.eigenvectors @ (w / cov.eigenvalues)


def unit_direction(v: NDArray[np.float64], cov: CovarianceModel) -> UnitDirection:
    """Normalize ``v`` and cache its coordinates in the eigenbasis of ``cov``.

    Raises
    ------
    ZeroSignalError
        On zero input.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ZeroSignalError("cannot normalize the zero vector")
    unit = v / norm
    return UnitDirection(v=unit, basis_coords=cov.eigenvectors.T @ unit)
