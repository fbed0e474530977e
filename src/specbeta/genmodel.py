"""Generative models with known ground truth.

Provides the source-mixing confounding model (latent sources Z feed both the
predictors, through a mixing matrix M, and the target, through a coefficient
vector c), the fitted covariance of its samples computed from the latent
draws alone, its equivalent single-vector sampler, the causal-plus-noise
generator, and the small-sample construction where an independent target
produces confounding-like regression vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, NumericError
from .spectral import CovarianceModel, _dot, covariance_from_moments


@dataclass(frozen=True)
class GroundTruth:
    """A synthetic model with known causal and confounding coefficients.

    ``m`` is the d x ell mixing matrix from the ell latent sources to the d
    predictors, ``a`` the causal coefficients and ``c`` the source-to-target
    coefficients.
    """

    m: NDArray[np.float64]
    a: NDArray[np.float64]
    c: NDArray[np.float64]

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64).reshape(-1)
        c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        d, ell = m.shape
        if ell < d:
            raise DataError(f"need ell >= d, got d={d}, ell={ell}")
        if a.shape[0] != d or c.shape[0] != ell:
            raise DataError("a/c lengths do not match mixing matrix shape")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def d(self) -> int:
        return self.m.shape[0]

    @property
    def ell(self) -> int:
        return self.m.shape[1]


def sample_ground_truth(d: int, ell: int, rng: np.random.Generator) -> GroundTruth:
    """Draw a random model: M entries N(0,1), scales Uniform[0,1], coefficients Gaussian.

    Draw order is fixed (M, sigma_a, sigma_c, a, c) so that generators in
    the same state always produce the identical model.
    """
    if not (1 <= d <= ell):
        raise DataError(f"need ell >= d >= 1, got d={d}, ell={ell}")
    m = rng.standard_normal((d, ell))
    sigma_a = float(rng.uniform(0.0, 1.0))
    sigma_c = float(rng.uniform(0.0, 1.0))
    a = sigma_a * rng.standard_normal(d)
    c = sigma_c * rng.standard_normal(ell)
    return GroundTruth(m=m, a=a, c=c)


def generate_samples(
    truth: GroundTruth, n: int, noise_sd: float, rng: np.random.Generator
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``(x, y)``: n samples of the structural equations X = MZ, Y = a'X + c'Z + E,
    as an (n, d) array and an (n,) array, the arguments of ``empirical_covariance``.

    ``noise_sd`` = 0 reproduces the noise-free structural model; a positive
    value adds independent N(0, noise_sd^2) observation noise on Y.
    """
    z, e = _draw_sources(truth, n, noise_sd, rng)
    x = (truth.m @ z).T
    y = x @ truth.a + z.T @ truth.c
    if e is not None:
        y = y + e
    return x, y


def sample_covariance(
    truth: GroundTruth, n: int, noise_sd: float, rng: np.random.Generator
) -> tuple[CovarianceModel, float]:
    """The fitted model and true beta of ``generate_samples``' data, without the data.

    Draws exactly what ``generate_samples`` draws, in the same order.  With
    X = MZ and Y = b'Z + E, where b = M'a + c, every centered moment is a
    function of the ell x ell latent Gram C = Zc Zc'/n:

        sigma_xx = M C M',  sigma_xy = M C b + M Zc Ec/n,
        sigma_yy = b'C b + 2 b'Zc Ec/n + Ec'Ec/n.

    This agrees with ``empirical_covariance(*generate_samples(...))`` up to
    rounding, not bit for bit.  Errors are those of that path.
    """
    moments = _latent_moments(truth, n, noise_sd, rng)
    cov, beta = _fitted_models(truth.m, truth.a, truth.c, *moments)
    return cov, float(beta)


def _latent_moments(
    truth: GroundTruth, n: int, noise_sd: float, g: np.random.Generator
) -> tuple[NDArray[np.float64], NDArray[np.float64], float, int]:
    """The draws of ``sample_covariance`` reduced to (C, Zc Ec/n, Ec'Ec/n, n).

    With noise_sd = 0 no noise is drawn and the noise moments are exact
    zeros, ``np.zeros(ell)`` and 0.0, which leave every moment they are
    added to as it is.  Nearly all of its time is spent in the draw and the
    Gram product, which release the GIL, and it calls nothing but numpy, so
    a study may run it on a worker thread or on the calling thread.  numpy's
    error state is per thread, so the overflow check below holds on either.

    Raises
    ------
    NumericError
        If the noise moments are not finite, as with a noise_sd whose square
        overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        z, e = _draw_sources(truth, n, noise_sd, g)
        z -= z.mean(axis=1, keepdims=True)
        gram = (z @ z.T) / n
        if e is None:
            return gram, np.zeros(truth.ell), 0.0, n
        e -= e.mean()
        ze, ee = (z @ e) / n, float(e @ e) / n
    if not (np.isfinite(ee) and np.isfinite(ze).all()):
        raise NumericError(f"noise moments overflow at noise_sd={noise_sd:g}")
    return gram, ze, ee, n


def _fitted_models(
    m: NDArray[np.float64], a: NDArray[np.float64], c: NDArray[np.float64],
    gram: NDArray[np.float64], ze: NDArray[np.float64], ee: float | NDArray[np.float64],
    n: int | NDArray[np.int64],
) -> tuple[CovarianceModel, float | NDArray[np.float64]]:
    """The fitted model and true beta of a model ``(m, a, c)`` and its
    ``_latent_moments`` ``(gram, ze, ee, n)``; of a stack of runs, given as
    those arrays with a leading run axis, the stacked models and true betas.

    One matmul chain forms every run's moments and one stacked ``eigh``
    their models; each run gets, bit for bit, what it gets alone.  The true
    beta is NaN where ``true_beta`` raises.  Raises the first error of
    ``covariance_from_moments`` that any run has.
    """
    mt = np.swapaxes(m, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by covariance_from_moments
        b = (mt @ a[..., None])[..., 0] + c  # M'a + c
        gb = gram @ b[..., None]
        sigma_xy = (m @ gb)[..., 0] + (m @ ze[..., None])[..., 0]
        sigma_yy = _dot(b, gb[..., 0]) + (2.0 * _dot(b, ze) + ee)
        sigma_xx = (m @ gram) @ mt
    return covariance_from_moments(sigma_xx, sigma_xy, sigma_yy, n), _true_betas(m, a, c)


def _draw_sources(
    truth: GroundTruth, n: int, noise_sd: float, g: np.random.Generator
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None]:
    """Latent sources Z (ell x n), then the noise E on Y, or None when noise_sd = 0."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if not 0 <= noise_sd < np.inf:
        raise ValueError(f"noise_sd must be finite and nonnegative, got {noise_sd}")
    z = g.standard_normal((truth.ell, n))
    e = noise_sd * g.standard_normal(n) if noise_sd > 0 else None
    return z, e


def true_beta(truth: GroundTruth) -> float:
    """Exact confounding strength ||M^+T c||^2 / (||a||^2 + ||M^+T c||^2).

    M^+T c is the part of the regression vector that the latent sources put
    there.  It is computed as R^-1 Q^T c from one reduced QR of M^T, which
    is exact for a full-row-rank M and keeps cond(R) = cond(M).  Returns 1.0
    for the purely confounded case (a = 0) and 0.0 for the purely causal
    case (c = 0).

    Raises
    ------
    NumericError
        If a = 0 and c = 0, or if M lacks full row rank (``_confounding_vectors``).
    """
    if float(truth.a @ truth.a) == 0.0 and not np.any(truth.c != 0.0):
        raise NumericError("a = 0 and c = 0: confounding strength undefined")
    beta = float(_true_betas(truth.m, truth.a, truth.c))
    if np.isnan(beta):
        raise NumericError("mixing matrix is not of full row rank")
    return beta


def _true_betas(
    m: NDArray[np.float64], a: NDArray[np.float64], c: NDArray[np.float64]
) -> NDArray[np.float64]:
    """``true_beta`` of a model, or of each model of a stack, or NaN where it raises."""
    a2 = _dot(a, a)
    c_any = np.any(c != 0.0, axis=-1)
    mtc, full_rank = _confounding_vectors(m, c)
    conf2 = _dot(mtc, mtc)
    with np.errstate(invalid="ignore"):  # 0/0 where a = 0 and c = 0: NaN below
        beta = np.where(c_any, np.where(a2 == 0.0, 1.0, conf2 / (a2 + conf2)), 0.0)
    return np.where((a2 == 0.0) & ~c_any | c_any & (a2 != 0.0) & ~full_rank, np.nan, beta)


def _confounding_vectors(
    m: NDArray[np.float64], c: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """M^+T c of a d x ell mixing matrix M, or of each (M, c) of a stack, and
    whether M has full row rank.

    For M of full row rank, M^+T = (M M^T)^-1 M, and with the reduced QR
    M^T = Q R this is R^-1 Q^T c.  No normal equations are formed, so the
    condition number is never squared: cond(R) = cond(M).  M lacks full row
    rank where min |R_ii| <= 1e-10 max |R_ii| (a ratio >= 1/cond(M)); a
    study's covariance check is stricter.  Such a row holds no answer, and
    raises nothing.
    """
    d = m.shape[-2]
    # The triangular factor of [M^T c] is [[R, Q^T c], [0, *]], so one
    # factorization gives both and Q is never formed.
    r = np.linalg.qr(np.concatenate([np.swapaxes(m, -1, -2), c[..., None]], axis=-1), mode="r")
    pivots = np.abs(np.diagonal(r, 0, -2, -1)[..., :d])
    full_rank = pivots.min(axis=-1) > 1e-10 * pivots.max(axis=-1)
    square = r[..., :d, :d]
    if not full_rank.all():  # solved against I instead, so that solve cannot fail
        square = np.where(full_rank[..., None, None], square, np.eye(d))
    return np.linalg.solve(square, r[..., :d, d:])[..., 0], full_rank


def sample_aprime_def1(
    m: NDArray[np.float64],
    sigma_a: float,
    sigma_c: float,
    rng: np.random.Generator,
) -> NDArray[np.float64]:
    """Draw a regression vector a' = a + M^+T c from the source-mixing model.

    a ~ N(0, sigma_a^2 I) and c ~ N(0, sigma_c^2 I) are drawn, in that order,
    for the fixed d x ell mixing matrix ``m``.  M^+T c is computed as
    R^-1 Q^T c from one reduced QR of M^T, as in ``true_beta``; NumericError
    where M lacks full row rank.
    """
    a = sigma_a * rng.standard_normal(m.shape[0])
    c = sigma_c * rng.standard_normal(m.shape[1])
    mtc, full_rank = _confounding_vectors(m, c)
    if not full_rank:
        raise NumericError("mixing matrix is not of full row rank")
    return a + mtc


def sample_aprime_def2(
    cov: CovarianceModel,
    sigma_a: float,
    sigma_c: float,
    rng: np.random.Generator,
) -> NDArray[np.float64]:
    """Draw a' = sqrt(sigma_a^2 I + sigma_c^2 sigma_xx^{-1}) b with b standard Gaussian.

    The matrix square root is applied in the eigenbasis, so the cost is
    O(d^2) per draw and no matrix is ever formed.
    """
    b = rng.standard_normal(cov.d)
    scale = np.sqrt(sigma_a**2 + sigma_c**2 / cov.eigenvalues)
    return cov.eigenvectors @ (scale * (cov.eigenvectors.T @ b))


def overfit_dataset(
    d: int, n: int, rng: np.random.Generator
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``(x, y)``: independent predictor/target samples, where regression overfits.

    ``generate_samples`` of a model with a = c = 0 and unit noise: X = MZ for a
    random square M, and Y is N(0,1) noise independent of X.  There is no
    structural confounding, so the true beta is 0 even though finite-sample
    regression on such data behaves like pure confounding.
    """
    if n <= d + 1:
        raise ValueError(f"need n > d + 1, got n={n}, d={d}")
    zero = np.zeros(d)
    truth = GroundTruth(m=rng.standard_normal((d, d)), a=zero, c=zero)
    return generate_samples(truth, n, 1.0, rng)


def sample_causal_truth(d: int, rng: np.random.Generator) -> GroundTruth:
    """Causal-only model: a random square mixing matrix M and a ~ N(0, I), c = 0.

    Draw order is fixed (M, a).
    """
    m = rng.standard_normal((d, d))
    a = rng.standard_normal(d)
    return GroundTruth(m=m, a=a, c=np.zeros(d))

