"""Shared helpers for the test suite."""

import numpy as np
import pytest

from specbeta import CovarianceModel


def cov_from_spectrum(eigenvalues, sigma_xy=None, n=0):
    """Covariance model with the given spectrum on a diagonal matrix."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if sigma_xy is None:
        sigma_xy = np.zeros(lam.size)
    return CovarianceModel.from_matrices(np.diag(lam), sigma_xy, n=n)


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
