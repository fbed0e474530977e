"""Stacked kernels: each row of a stack gets, bit for bit, what it gets fitted alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import ExperimentConfig, ZeroSignalError, estimator, harness, spectral
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
    """The records of ``_fit_records``' functions, row i on ``run_rng(0, i)``'s normals."""
    return stable_json([fit(run_rng(0, i).standard_normal) for i, fit in enumerate(fitted)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stack=stacks(), zero_at=st.one_of(st.none(), st.integers(0, 7)))
def test_each_row_of_a_stack_is_its_single_fit(stack, zero_at):
    sigma_xx, sigma_xy, n = stack
    rows = range(len(n))
    cov = spectral._from_matrices(sigma_xx, sigma_xy, n)
    alone = [spectral._from_matrices(sigma_xx[i:i + 1], sigma_xy[i:i + 1], n[i:i + 1])
             for i in rows]
    for i in rows:
        for field in ("sigma_xy", "eigenvalues", "eigenvectors", "tau_inv", "n"):
            assert getattr(cov, field)[i].tobytes() == getattr(alone[i], field)[0].tobytes()
        # the mean of the row's own spectrum, as its R = 1 model reads it
        assert cov.tau_inv[i].tobytes() == spectral._row(alone[i], 0).tau_inv.tobytes()
    coords = spectral._direction_coords(cov)
    estimates = estimator._estimates(coords, cov)
    for i in rows:
        u = spectral._direction_coords(alone[i])
        assert coords[i].tobytes() == u[0].tobytes()
        single = estimator._estimates(u, alone[i])
        assert [x[i].tobytes() for x in estimates] == [x[0].tobytes() for x in single]
    assert records(harness._fit_records(CONFIG, cov, [None] * len(n))) == stable_json(
        [harness.fit_record(CONFIG, run_rng(0, i).standard_normal, spectral._row(alone[i], 0))
         for i in rows])
    if zero_at is None or zero_at >= len(n):
        return
    # a row without signal fails the stack; every other row keeps its single fit
    sigma_xy = sigma_xy.copy()
    sigma_xy[zero_at] = 0.0

    def fit(picked):
        return harness._fit_records(CONFIG, spectral._from_matrices(
            sigma_xx[picked], sigma_xy[picked], n[picked]), [None] * len(picked))

    with pytest.raises(ZeroSignalError):
        fit(list(rows))
    fitted = harness._stacked_fits(fit, list(rows))
    with pytest.raises(ZeroSignalError, match="^sigma_xy is zero; the target carries no signal$"):
        fitted[zero_at](run_rng(0, zero_at).standard_normal)
    for i in rows:
        if i != zero_at:
            assert records([fitted[i]]) == records(fit([i]))
