"""Covariance computation and dense symmetric spectral decomposition.

Turns raw (X, y) samples into the sufficient statistic used everywhere else:
the predictor covariance, its eigendecomposition, the cross-covariance and
the regression direction.  Samples are centered and multiplied in one place,
``_joint_covariance``; the library's ``empirical_covariance(x, y)`` and the
CSV commands both take a target's moments from its block.
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
class CovarianceModel:
    """Predictor covariance, cross-covariance and the spectral decomposition.

    Eigenvalues are sorted descending, paired with the eigenvector columns,
    which hold the whole of sigma_xx = V diag(lambda) V'; ``n`` = sample
    count (0 if analytic).  A model may also be a stack of R models, fitted
    at once: each array field then has a leading run axis of length R, and
    ``n`` and ``tau_inv`` are (R,) arrays.  Every fit function takes either,
    and gives each model of a stack, bit for bit, what it gives that model
    alone; ``_row`` takes one model out of a stack.
    """

    sigma_xy: NDArray[np.float64]
    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.float64]
    n: int | NDArray[np.int64] = 0

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
        n: int | NDArray[np.int64] = 0,
    ) -> "CovarianceModel":
        """Build the model from a covariance matrix and cross-covariance vector,
        or a stack from (R, d, d) matrices, (R, d) vectors and (R,) counts.

        The matrix is symmetrized as (S + S^T)/2 before the self-adjoint
        eigendecomposition, which guards against round-off asymmetry.

        Raises
        ------
        NumericError
            If the smallest eigenvalue is <= RANK_EPS times the largest, in
            the first model of a stack where it is.
        """
        s = np.asarray(sigma_xx, dtype=np.float64)
        sxy = np.asarray(sigma_xy, dtype=np.float64)
        if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
            raise ValueError(f"sigma_xx must be square, got shape {s.shape}")
        if sxy.shape != s.shape[:-1]:
            raise ValueError("sigma_xy length does not match sigma_xx")
        # halved first, so that no finite sum overflows
        s = 0.5 * s + 0.5 * np.swapaxes(s, -1, -2)
        lam, vec = np.linalg.eigh(s)  # each slice bit for bit its own eigh
        # eigh returns ascending order
        lam = lam[..., ::-1].copy()
        vec = vec[..., ::-1].copy()
        rows = lam.reshape(-1, lam.shape[-1])
        low = np.flatnonzero(rows[:, -1] <= RANK_EPS * rows[:, 0])
        if low.size:
            top, bottom = rows[low[0], 0], rows[low[0], -1]
            raise NumericError(
                f"smallest eigenvalue {bottom:.3e} is below {RANK_EPS:.0e} x largest ({top:.3e})"
            )
        return cls(sxy, lam, vec, n)


def _row(cov: CovarianceModel, i: int) -> CovarianceModel:
    """Model ``i`` of a stack."""
    return CovarianceModel(cov.sigma_xy[i], cov.eigenvalues[i], cov.eigenvectors[i],
                           int(cov.n[i]))


def _dot(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row-wise dot products of two (..., d) stacks, each the BLAS dot of ``a_i.dot(b_i)``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def empirical_covariance(x: NDArray[np.float64], y: NDArray[np.float64]) -> CovarianceModel:
    """Column-mean-centered empirical covariances of n samples (x, y), normalized by 1/n.

    ``x`` is (n, d), one row per sample, and ``y`` is (n,).  The moments are
    the blocks of the joint covariance of ``x`` with ``y`` as its last
    column, as a CSV command forms them; the model, and its zero-signal
    rule, come from covariance_from_moments.

    Raises
    ------
    ValueError
        If the arrays are not (n, d) and (n,) with n >= 2 and d >= 1, or hold
        a non-finite entry.
    DataError
        If n <= d.
    NumericError
        If a moment overflows, or the empirical covariance is numerically singular.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
    joint = _joint_covariance(np.column_stack([x, y]))
    return covariance_from_moments(*_column_moments(joint, d), n)


def _joint_covariance(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """The 1/n centered covariance of the k columns of an (n, k) matrix.

    The one place where (X, y) samples are centered and multiplied.  The
    Gram's last bits depend on the column order, so a target's moments are
    the same from two callers only where it has the same place among the
    columns.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked by covariance_from_moments
        centered = matrix - matrix.mean(axis=0)
        return (centered.T @ centered) / len(matrix)


def _column_moments(joint: NDArray[np.float64], j: int) -> tuple[NDArray[np.float64], ...]:
    """(sigma_xx, sigma_xy, sigma_yy) of column j as the target of the others, from ``joint``."""
    rest = np.delete(np.arange(len(joint)), j)
    return joint[np.ix_(rest, rest)], joint[rest, j], joint[j, j]


def covariance_from_moments(
    sigma_xx: NDArray[np.float64],
    sigma_xy: NDArray[np.float64],
    sigma_yy: float | NDArray[np.float64],
    n: int | NDArray[np.int64],
) -> CovarianceModel:
    """Model from the centered second moments of n samples, normalized by 1/n,
    or a stack from (R, d, d), (R, d), (R,) and (R,) moments, which raises
    the first error that any of its models has.

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
    d = sigma_xy.shape[-1]
    few = np.flatnonzero(n <= d)
    if few.size:
        raise DataError(f"need n > d, got n={np.ravel(n)[few[0]]}, d={d}")
    if not (np.isfinite(sigma_yy).all() and np.isfinite(sigma_xy).all()
            and np.isfinite(sigma_xx).all()):
        raise NumericError("second moments overflow: the data are too large in scale")
    # sigma_xy is scaled by its largest entry before it is squared, tr sigma_xx
    # is summed in units of d and ZERO_SIGNAL_EPS is applied first, so that no
    # square, sum or product of finite moments overflows.
    top = np.abs(sigma_xy).max(axis=-1)
    scaled = sigma_xy / np.where(top > 0.0, top, 1.0)[..., None]
    norm = top * np.sqrt(_dot(scaled, scaled))
    root_trace = np.sqrt(d) * np.sqrt(np.sum(np.diagonal(sigma_xx, 0, -2, -1) / d, axis=-1))
    zero = norm <= ZERO_SIGNAL_EPS * np.sqrt(sigma_yy) * root_trace
    if zero.any():
        sigma_xy = np.where(zero[..., None], 0.0, sigma_xy)
    return CovarianceModel.from_matrices(sigma_xx, sigma_xy, n)


def regression_vector(cov: CovarianceModel) -> NDArray[np.float64]:
    """Population least-squares coefficients sigma_xx^{-1} sigma_xy, one row
    per model of a stack.

    Solved in the stored eigenbasis rather than by inverting the raw matrix.

    Raises
    ------
    ZeroSignalError
        If the cross-covariance of any model is exactly zero.
    """
    if not cov.sigma_xy.any(axis=-1).all():
        raise ZeroSignalError("sigma_xy is zero; the target carries no signal")
    w = np.swapaxes(cov.eigenvectors, -1, -2) @ cov.sigma_xy[..., None]
    return (cov.eigenvectors @ (w / cov.eigenvalues[..., None]))[..., 0]


def unit_direction(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """``v`` divided by its norm, or each row of a (..., d) stack by its own.

    The norm squares the entries, so where that over- or underflows, ``v`` is
    first divided by its largest entry in absolute value.

    Raises
    ------
    ZeroSignalError
        On a zero vector.
    """
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite norm is taken again below
        norm = np.sqrt(_dot(v, v))
    rescale = ~((_SAFE_NORM <= norm) & (norm < np.inf))
    if rescale.any():
        largest = np.max(np.abs(v), axis=-1, initial=0.0)
        if np.any(rescale & (largest == 0.0)):
            raise ZeroSignalError("cannot normalize the zero vector")
        v = np.where(rescale[..., None], v / np.where(rescale, largest, 1.0)[..., None], v)
        norm = np.where(rescale, np.sqrt(_dot(v, v)), norm)
    return v / norm[..., None]


def direction_coords(cov: CovarianceModel) -> NDArray[np.float64]:
    """Eigenbasis coordinates u of the unit regression direction, one row per
    model of a stack: all that the estimator and the test read from the data.
    ZeroSignalError on zero sigma_xy.
    """
    unit = unit_direction(regression_vector(cov))
    return (np.swapaxes(cov.eigenvectors, -1, -2) @ unit[..., None])[..., 0]


def _unit(u: NDArray[np.float64], shape: tuple[int, ...]) -> NDArray[np.float64]:
    """``u`` as a float array; ValueError unless it has ``shape``, that of its
    model's eigenvalues, and each of its rows is of length 1 to within 1e-12.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != shape:
        raise ValueError(f"direction of shape {u.shape} does not match its model's {shape}")
    if not np.all(np.abs(np.sqrt(_dot(u, u)) - 1.0) <= 1e-12):
        raise ValueError("direction is not unit length")
    return u
