"""Shared helpers for the test suite."""

import itertools

import numpy as np
import pytest

from specbeta import CovarianceModel, empirical_covariance


def cov_from_spectrum(eigenvalues, sigma_xy=None, n=0):
    """Covariance model with the given spectrum on a diagonal matrix."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if sigma_xy is None:
        sigma_xy = np.zeros(lam.size)
    return CovarianceModel.from_matrices(np.diag(lam), sigma_xy, n=n)


def sigma_xx(cov):
    """The predictor covariance V diag(lambda) V' that ``cov``'s spectrum holds."""
    vec = cov.eigenvectors
    return (vec * cov.eigenvalues[..., None, :]) @ np.swapaxes(vec, -1, -2)


def factorial_cov(seed):
    """Fitted model of a 2^3 factorial design repeated 4 times and y = x . [1, 2, 3] + N(0, 1).

    The design's columns are orthogonal with mean 0, so X'X = 32 I: every
    eigenvalue is exactly 1 and the direction likelihood is flat.
    """
    x = np.tile(list(itertools.product([-1.0, 1.0], repeat=3)), (4, 1))
    y = x @ np.array([1.0, 2.0, 3.0]) + np.random.default_rng(seed).standard_normal(32)
    return empirical_covariance(x, y)


def eigvec_coords(cov, eigenvalue):
    """Eigenbasis coordinates of the unit eigenvector of ``cov`` paired with the closest eigenvalue."""
    idx = int(np.argmin(np.abs(cov.eigenvalues - eigenvalue)))
    return np.eye(cov.d)[idx]


def random_orthogonal(d, rng):
    """Haar-ish orthogonal matrix from a QR decomposition."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
