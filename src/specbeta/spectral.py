"""Covariance computation and dense symmetric spectral decomposition.

Turns raw (X, y) samples into the sufficient statistic used everywhere else:
the predictor covariance, its eigendecomposition, the cross-covariance and
the regression direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, NumericError, ZeroSignalError

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

    Eigenvalues are sorted descending, paired with the eigenvector columns,
    which hold the whole of sigma_xx = V diag(lambda) V'; ``n`` = sample
    count (0 if analytic).  The private kernels fit a stack of R models at
    once: there each array field has a leading run axis of length R, and
    ``n`` and ``tau_inv`` are (R,) arrays.  ``_row`` takes one model out of
    a stack and ``_stacked`` makes a model a stack of one.
    """

    sigma_xy: NDArray[np.float64]
    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.float64]
    n: int = 0

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def tau_inv(self) -> float | NDArray[np.float64]:
        """mean(1/eigenvalues): a float, or one per model of a stack."""
        return np.mean(1.0 / self.eigenvalues, axis=-1)

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
        NumericError
            If the smallest eigenvalue is <= RANK_EPS times the largest.
        """
        s = np.asarray(sigma_xx, dtype=np.float64)
        sxy = np.asarray(sigma_xy, dtype=np.float64).reshape(-1)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"sigma_xx must be square, got shape {s.shape}")
        if sxy.shape[0] != s.shape[0]:
            raise ValueError("sigma_xy length does not match sigma_xx")
        return _row(_from_matrices(s[None], sxy[None], np.array([n])), 0)


def _from_matrices(
    sigma_xx: NDArray[np.float64], sigma_xy: NDArray[np.float64], n: NDArray[np.int64]
) -> CovarianceModel:
    """``from_matrices`` of a stack: (R, d, d) matrices, (R, d) vectors and (R,) counts."""
    # halved first, so that no finite sum overflows
    s = 0.5 * sigma_xx + 0.5 * np.swapaxes(sigma_xx, -1, -2)
    lam, vec = np.linalg.eigh(s)  # each slice bit for bit its own eigh
    # eigh returns ascending order
    lam = lam[:, ::-1].copy()
    vec = vec[:, :, ::-1].copy()
    low = np.flatnonzero(lam[:, -1] <= RANK_EPS * lam[:, 0])
    if low.size:
        top, bottom = lam[low[0], 0], lam[low[0], -1]
        raise NumericError(
            f"smallest eigenvalue {bottom:.3e} is below {RANK_EPS:.0e} x largest ({top:.3e})"
        )
    return CovarianceModel(sigma_xy, lam, vec, n)


def _row(cov: CovarianceModel, i: int) -> CovarianceModel:
    """Model ``i`` of a stack."""
    return CovarianceModel(cov.sigma_xy[i], cov.eigenvalues[i], cov.eigenvectors[i],
                           int(cov.n[i]))


def _stacked(cov: CovarianceModel) -> CovarianceModel:
    """A model as a stack of one."""
    return CovarianceModel(cov.sigma_xy[None], cov.eigenvalues[None], cov.eigenvectors[None],
                           np.array([cov.n]))


def _dot(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row-wise dot products of two (..., d) stacks, each the BLAS dot of ``a_i.dot(b_i)``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def empirical_covariance(data: DataMatrix) -> CovarianceModel:
    """Column-mean-centered empirical covariances, normalized by 1/n.

    The model, and its zero-signal rule, come from covariance_from_moments.

    Raises
    ------
    DataError
        If n <= d.
    NumericError
        If a moment overflows, or the empirical covariance is numerically singular.
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
    DataError
        If n <= d.
    NumericError
        If a moment is not finite, or the covariance is numerically singular.
    """
    moments = (sigma_xx[None], sigma_xy[None], np.array([sigma_yy]), np.array([n]))
    return _row(_from_moments(*moments), 0)


def _from_moments(
    sigma_xx: NDArray[np.float64],
    sigma_xy: NDArray[np.float64],
    sigma_yy: NDArray[np.float64],
    n: NDArray[np.int64],
) -> CovarianceModel:
    """``covariance_from_moments`` of a stack; it raises the first error that any model has."""
    d = sigma_xy.shape[-1]
    few = np.flatnonzero(n <= d)
    if few.size:
        raise DataError(f"need n > d, got n={n[few[0]]}, d={d}")
    if not (np.isfinite(sigma_yy).all() and np.isfinite(sigma_xy).all()
            and np.isfinite(sigma_xx).all()):
        raise NumericError("second moments overflow: the data are too large in scale")
    # sigma_xy is scaled by its largest entry before it is squared, tr sigma_xx
    # is summed in units of d and ZERO_SIGNAL_EPS is applied first, so that no
    # square, sum or product of finite moments overflows.
    top = np.abs(sigma_xy).max(axis=-1)
    scaled = sigma_xy / np.where(top > 0.0, top, 1.0)[:, None]
    norm = top * np.sqrt(_dot(scaled, scaled))
    root_trace = np.sqrt(d) * np.sqrt(np.sum(np.diagonal(sigma_xx, 0, -2, -1) / d, axis=-1))
    zero = norm <= ZERO_SIGNAL_EPS * np.sqrt(sigma_yy) * root_trace
    if zero.any():
        sigma_xy = np.where(zero[:, None], 0.0, sigma_xy)
    return _from_matrices(sigma_xx, sigma_xy, n)


def regression_vector(cov: CovarianceModel) -> NDArray[np.float64]:
    """Population least-squares coefficients sigma_xx^{-1} sigma_xy.

    Solved in the stored eigenbasis rather than by inverting the raw matrix.

    Raises
    ------
    ZeroSignalError
        If the cross-covariance is exactly zero.
    """
    return _regression_vectors(_stacked(cov))[0]


def _regression_vectors(cov: CovarianceModel) -> NDArray[np.float64]:
    """``regression_vector`` of each model of a stack."""
    if not cov.sigma_xy.any(axis=-1).all():
        raise ZeroSignalError("sigma_xy is zero; the target carries no signal")
    w = np.swapaxes(cov.eigenvectors, -1, -2) @ cov.sigma_xy[..., None]
    return (cov.eigenvectors @ (w / cov.eigenvalues[..., None]))[..., 0]


def unit_direction(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """``v`` divided by its norm.

    The norm squares the entries, so where that over- or underflows, ``v`` is
    first divided by its largest entry in absolute value.

    Raises
    ------
    ZeroSignalError
        On zero input.
    """
    return _unit_directions(np.asarray(v, dtype=np.float64).reshape(1, -1))[0]


def _unit_directions(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """``unit_direction`` of each row of an (R, d) stack."""
    with np.errstate(over="ignore"):  # an infinite norm is taken again below
        norm = np.sqrt(_dot(v, v))
    rescale = ~((_SAFE_NORM <= norm) & (norm < np.inf))
    if rescale.any():
        largest = np.max(np.abs(v), axis=-1, initial=0.0)
        if np.any(largest[rescale] == 0.0):
            raise ZeroSignalError("cannot normalize the zero vector")
        v = np.where(rescale[:, None], v / np.where(rescale, largest, 1.0)[:, None], v)
        norm = np.where(rescale, np.sqrt(_dot(v, v)), norm)
    return v / norm[:, None]


def direction_coords(cov: CovarianceModel) -> NDArray[np.float64]:
    """Eigenbasis coordinates u of the unit regression direction: all that the
    estimator and the test read from the data.  ZeroSignalError on zero sigma_xy.
    """
    return _direction_coords(_stacked(cov))[0]


def _direction_coords(cov: CovarianceModel) -> NDArray[np.float64]:
    """``direction_coords`` of each model of a stack."""
    unit = _unit_directions(_regression_vectors(cov))
    return (np.swapaxes(cov.eigenvectors, -1, -2) @ unit[..., None])[..., 0]


def _unit(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """``u`` as a 1-D float array; ValueError unless its length is 1 to within 1e-12."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
        raise ValueError("direction is not unit length")
    return u
