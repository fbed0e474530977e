"""Stacked fits: each row of a stack gets, bit for bit, what it gets fitted alone."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    CovarianceModel, ExperimentConfig, ZeroSignalError, estimator, genmodel, harness,
    spectral,
)
from specbeta.harness import run_rng, stable_json

from conftest import random_orthogonal
from test_estimator import EDGE_ROWS

# estimate and test in one record: beta_hat, theta_hat, boundary, t_observed, p_value
CONFIG = ExperimentConfig(mode="shuffle_target", input_path="unread.csv", null_count=100)


@st.composite
def spectral_row(draw, d):
    """``(sigma_xx, sigma_xy)`` of one model of d predictors.

    A random spectrum of condition number up to 1e9, or blocks of equal
    eigenvalues, each in a random eigenbasis, with a random regression
    direction or one tilted toward lambda_min, where theta_hat is at the top
    of its grid; at d = 3 also the diagonal EDGE_ROWS.
    """
    kinds = ["random", "flat", "tilted"] + ["edge"] * (d == 3)
    kind = draw(st.sampled_from(kinds))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "edge":
        lam, u2 = (np.array(v) for v in EDGE_ROWS[draw(st.sampled_from(sorted(EDGE_ROWS)))])
        return np.diag(lam), lam * np.sqrt(u2)
    if kind == "flat":
        levels = 10.0 ** g.uniform(-3.0, 3.0, draw(st.integers(1, 3)))
        lam = np.sort(levels[g.integers(0, len(levels), d)])[::-1]
    else:
        lam = np.sort(10.0 ** g.uniform(0.0, draw(st.floats(0.0, 9.0)), d))[::-1]
    u = g.standard_normal(d)
    if kind == "tilted":
        u = np.eye(d)[-1] + draw(st.sampled_from([0.0, 1e-6, 1e-3])) * u
    q = random_orthogonal(d, g)
    return (q * lam) @ q.T, q @ (lam * u)


@st.composite
def stacks(draw):
    """``(sigma_xx, sigma_xy, n)`` of a stack of 1 to 8 models of one d, 2 to 20."""
    d = draw(st.one_of(st.just(3), st.integers(2, 20)))
    rows = draw(st.lists(spectral_row(d), min_size=1, max_size=8))
    n = draw(st.lists(st.integers(d + 1, 10**6), min_size=len(rows), max_size=len(rows)))
    return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows]), np.array(n)


def records(fitted):
    """The records of ``fit_records``' functions, row i on ``run_rng(0, i)``'s normals."""
    return stable_json([fit(run_rng(0, i).standard_normal) for i, fit in enumerate(fitted)])


def same_bits(stacked, alone):
    """Whether each field of the stacked result's row holds the bits of the one-model result."""
    return [np.asarray(x).tobytes() for x in stacked] == [np.asarray(x).tobytes() for x in alone]


def fields(cov):
    return [getattr(cov, name) for name in ("sigma_xy", "eigenvalues", "eigenvectors",
                                            "tau_inv", "n")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stack=stacks(), zero_at=st.one_of(st.none(), st.integers(0, 7)))
def test_each_row_of_a_stack_is_its_single_fit(stack, zero_at):
    sigma_xx, sigma_xy, n = stack
    rows = range(len(n))
    cov = CovarianceModel.from_matrices(sigma_xx, sigma_xy, n)
    alone = [CovarianceModel.from_matrices(sigma_xx[i], sigma_xy[i], int(n[i])) for i in rows]
    for i in rows:
        assert same_bits([x[i] for x in fields(cov)], fields(alone[i]))
        # the mean of the row's own spectrum, as its plain model reads it
        assert cov.tau_inv[i].tobytes() == alone[i].tau_inv.tobytes()
    # any positive sigma_yy: it sets only the zero-signal scale
    sigma_yy = 1.0 + np.abs(sigma_xy).sum(axis=-1)
    moments = spectral.covariance_from_moments(sigma_xx, sigma_xy, sigma_yy, n)
    for i in rows:
        single = spectral.covariance_from_moments(sigma_xx[i], sigma_xy[i], sigma_yy[i], int(n[i]))
        assert same_bits([x[i] for x in fields(moments)], fields(single))
    vectors = spectral.regression_vector(cov)
    units = spectral.unit_direction(vectors)
    coords = spectral.direction_coords(cov)
    estimates = dataclasses.astuple(estimator.estimate_theta(coords, cov))
    confounding = dataclasses.astuple(estimator.estimate_confounding(cov))
    for i in rows:
        assert vectors[i].tobytes() == spectral.regression_vector(alone[i]).tobytes()
        assert units[i].tobytes() == spectral.unit_direction(vectors[i]).tobytes()
        u = spectral.direction_coords(alone[i])
        assert coords[i].tobytes() == u.tobytes()
        single = dataclasses.astuple(estimator.estimate_theta(u, alone[i]))
        assert same_bits([x[i] for x in estimates], single)
        assert same_bits([x[i] for x in confounding], single)
        assert [type(x) for x in single] == [float, float, float, bool]
    assert records(harness.fit_records(CONFIG, cov, [None] * len(n))) == records(
        [harness.fit_records(CONFIG, CovarianceModel.from_matrices(
            sigma_xx[i:i + 1], sigma_xy[i:i + 1], n[i:i + 1]), [None])[0] for i in rows])
    if zero_at is None or zero_at >= len(n):
        return
    # a row without signal fails the stack; every other row keeps its single fit
    sigma_xy = sigma_xy.copy()
    sigma_xy[zero_at] = 0.0

    def fit(picked):
        return harness.fit_records(CONFIG, CovarianceModel.from_matrices(
            sigma_xx[picked], sigma_xy[picked], n[picked]), [None] * len(picked))

    with pytest.raises(ZeroSignalError):
        fit(list(rows))
    fitted = harness._stacked_fits(fit, list(rows))
    with pytest.raises(ZeroSignalError, match="^sigma_xy is zero; the target carries no signal$"):
        fitted[zero_at](run_rng(0, zero_at).standard_normal)
    for i in rows:
        if i != zero_at:
            assert records([fitted[i]]) == records(fit([i]))


@st.composite
def study_runs(draw):
    """``(m, a, c, gram, ze, ee, n)`` of a stack of 1 to 8 study runs of one (d, ell).

    Noise-free and noisy runs; where ``edges``, also a mixing matrix without
    full row rank and a model with a = c = 0, whose true betas are NaN.
    """
    d = draw(st.integers(2, 12))
    ell = d + draw(st.integers(0, 6))
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        truth = genmodel.sample_ground_truth(d, ell, g)
        n, noise_sd = draw(st.integers(ell + 2, 400)), draw(st.sampled_from([0.0, 0.0, 0.5, 3.0]))
        runs.append((truth.m, truth.a, truth.c, *genmodel._latent_moments(truth, n, noise_sd, g)))
    return [np.stack(column) for column in zip(*runs)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(runs=study_runs(), edges=st.booleans())
def test_each_run_of_a_stack_is_its_single_model_fit(runs, edges):
    m, a, c, *moments = runs
    rows = range(len(m))
    cov, betas = genmodel._fitted_models(m, a, c, *moments)
    for i in rows:
        single, beta = genmodel._fitted_models(m[i], a[i], c[i], *(x[i] for x in moments))
        assert same_bits([x[i] for x in fields(cov)], fields(single))
        assert betas[i].tobytes() == np.asarray(beta).tobytes()
    if edges:
        m, a, c = m.copy(), a.copy(), c.copy()
        m[0, -1] = 0.0  # the mixing matrix of run 0 loses full row rank
        a[-1], c[-1] = 0.0, 0.0  # the last run has no signal
    betas = genmodel._true_betas(m, a, c)
    assert not edges or np.isnan(betas[-1]) and np.isnan(betas[0])
    for i in rows:
        assert betas[i].tobytes() == genmodel._true_betas(m[i], a[i], c[i]).tobytes()
