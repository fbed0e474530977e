"""Direction density, likelihood maximization and concentration diagnostics."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    CovarianceModel,
    DataMatrix,
    ExperimentConfig,
    NumericOverflowError,
    RankDeficientError,
    SingularMatrixError,
    ZeroSignalError,
    beta_from_theta,
    concentrated_loglik,
    concentration_bound,
    direction_density,
    empirical_covariance,
    estimate_confounding,
    estimate_theta,
    generate_samples,
    log_direction_density,
    run,
    sample_ground_truth,
    statistic_T,
    unit_direction,
)
from specbeta import estimator
from specbeta import test_nonconfounding as run_nonconfounding_test
from specbeta.estimator import GRID_HI, GRID_LO, GRID_POINTS, REFINE_REL_TOL
from specbeta.genmodel import GroundTruth, sample_covariance
from specbeta.harness import run_rng
from specbeta.spectral import RANK_EPS

from conftest import cov_from_spectrum, eigvec_coords, factorial_cov, random_orthogonal


def sqrt_r_theta(theta, cov):
    """Dense square root of I + theta * sigma_xx^{-1}, for oracle checks."""
    r = np.sqrt(1.0 + theta / cov.eigenvalues)
    return cov.eigenvectors @ np.diag(r) @ cov.eigenvectors.T


def scan_grid(cov, points=GRID_POINTS):
    """{0} plus the logarithmic scan range of ``estimate_theta`` with ``points`` points."""
    lam_med = float(np.median(cov.eigenvalues))
    return np.concatenate(
        [[0.0], np.geomspace(GRID_LO * lam_med, GRID_HI * lam_med, points)]
    )


def bisection_reference(u, cov):
    """(theta_hat, loglik) of ``estimate_theta`` with its refinement done by bisection.

    This is the refinement ``estimate_theta`` used before its Newton steps:
    the same grid, end rules and final choice, with the bracket halved on
    the sign of the slope until its width is within REFINE_REL_TOL of its
    upper end, about 42 halvings.
    """
    lam = cov.eigenvalues
    grid = scan_grid(cov)
    vals = log_direction_density(grid, u, cov)
    best = int(np.argmax(vals))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])
    u2 = u**2

    def rising(theta):
        q = u2 / (1.0 + theta / lam)
        inv = 1.0 / (lam + theta)
        return bool(lam.size * np.dot(q, inv) > np.sum(inv) * np.sum(q))

    if not rising(lo):
        hi = lo
    elif rising(hi):
        lo = hi
    while hi - lo > REFINE_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    refined = 0.5 * (lo + hi)
    candidates = [(grid[best], vals[best])]
    candidates.append((refined, log_direction_density(refined, u, cov)))
    theta_hat, loglik = min(candidates, key=lambda p: (-p[1], p[0]))
    return float(theta_hat), float(loglik)


def slope_rounding_band(theta, u, cov):
    """Width in theta within which rounding can hide the sign of the slope.

    The closed-form slope 1/2 (d S_2/S_1 - A_1) is a difference of terms of
    size A_1, each summed over d terms, so its rounding error is about
    d eps A_1; divided by |l''| that is a width in theta.  Any refinement on
    the computed slope, the reference's bisection included, can stop
    anywhere in it.
    """
    lam = cov.eigenvalues
    inv = 1.0 / (lam + theta)
    q = u**2 * lam * inv
    s1, s2, s3 = q.sum(), q @ inv, q @ inv**2
    curvature = 0.5 * (inv @ inv + cov.d * ((s2 / s1) ** 2 - 2.0 * s3 / s1))
    return cov.d * np.finfo(float).eps * inv.sum() / abs(curvature)


def decimal_maximizer(theta, u, cov):
    """The root of the log-likelihood's slope within 0.1% of ``theta``, in 50-digit arithmetic.

    The slope has the sign of d S_2 - A_1 S_1 (see ``estimator._newton``).
    Summed with ``decimal`` at 50 digits from the floats u and lambda, no
    rounding hides that sign, and bisection narrows the root to 1e-30
    relative.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        lam = [Decimal(float(x)) for x in cov.eigenvalues]
        w = [Decimal(float(x)) ** 2 * lj for x, lj in zip(u, lam)]

        def rising(th):
            inv = [1 / (lj + th) for lj in lam]
            s1 = sum(wj * ij for wj, ij in zip(w, inv))
            s2 = sum(wj * ij * ij for wj, ij in zip(w, inv))
            return cov.d * s2 > sum(inv) * s1

        lo, hi = Decimal(theta) * Decimal("0.999"), Decimal(theta) * Decimal("1.001")
        assert rising(lo) and not rising(hi)
        while hi - lo > hi * Decimal("1e-30"):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        return float(lo)


def recorded_newton_steps(monkeypatch):
    """A list that collects (theta, step) of every ``_newton`` call that follows."""
    calls = []
    newton = estimator._newton

    def recorded(theta, *args):
        rising, step = newton(theta, *args)
        calls.append((theta, step))
        return rising, step

    monkeypatch.setattr(estimator, "_newton", recorded)
    return calls


class TestLogDirectionDensity:
    def test_zero_theta_is_exactly_zero(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            cov = cov_from_spectrum(rng.uniform(0.2, 5.0, size=d))
            u = unit_direction(rng.standard_normal(d))
            assert log_direction_density(0.0, u, cov) == 0.0

    def test_mass_on_small_eigenvalue_raises_density(self):
        cov = cov_from_spectrum([1.0, 4.0])
        low = eigvec_coords(cov, 1.0)
        high = eigvec_coords(cov, 4.0)
        assert log_direction_density(1.0, low, cov) == pytest.approx(
            0.23500181462286774, abs=1e-12
        )
        assert log_direction_density(1.0, high, cov) == pytest.approx(
            -0.2350018146228678, abs=1e-12
        )

    def test_agrees_with_pushforward_density(self, rng):
        # exp(log density at theta) must equal the generic matrix-pushforward
        # density evaluated at A = sqrt(I + theta * sigma_xx^{-1})
        for _ in range(10):
            d = int(rng.integers(2, 6))
            m = rng.standard_normal((d, d + 1))
            from specbeta import CovarianceModel

            cov = CovarianceModel.from_matrices(m @ m.T, np.zeros(d))
            v = unit_direction(rng.standard_normal(d))
            theta = float(rng.uniform(0.1, 5.0))
            direct = math.exp(log_direction_density(theta, cov.eigenvectors.T @ v, cov))
            oracle = direction_density(sqrt_r_theta(theta, cov), v)
            assert direct == pytest.approx(oracle, rel=1e-10)

    def test_rejects_negative_theta(self):
        cov = cov_from_spectrum([1.0, 2.0])
        u = eigvec_coords(cov, 1.0)
        with pytest.raises(ValueError):
            log_direction_density(-1.0, u, cov)

    def test_array_matches_scalar_calls(self, rng):
        # one call over an array of theta gives exactly the scalar values,
        # in the shape of the input, with an exact 0.0 at theta = 0
        for _ in range(100):
            d = int(rng.integers(2, 40))
            cov = cov_from_spectrum(10.0 ** rng.uniform(-3, 3, size=d))
            u = unit_direction(rng.standard_normal(d))
            thetas = np.concatenate([scan_grid(cov), 10.0 ** rng.uniform(-8, 8, 39)])
            vals = log_direction_density(thetas, u, cov)
            assert vals.shape == thetas.shape
            assert vals[0] == 0.0
            for theta, val in zip(thetas, vals):
                assert val == log_direction_density(float(theta), u, cov)
            square = log_direction_density(thetas.reshape(16, 15), u, cov)
            np.testing.assert_array_equal(square, vals.reshape(16, 15))

    def test_array_errors_match_scalar(self):
        cov = cov_from_spectrum([0.5, 2.0])
        u = eigvec_coords(cov, 2.0)
        with pytest.raises(ValueError):
            log_direction_density(np.array([0.0, 1.0, -1.0]), u, cov)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError):
                log_direction_density(1.5e308, u, cov)
            with pytest.raises(NumericOverflowError):
                log_direction_density(np.array([0.0, 1.5e308]), u, cov)


class TestDirectionDensity:
    def test_identity_matrix(self, rng):
        assert direction_density(np.eye(2), np.array([0.6, 0.8])) == pytest.approx(1.0)

    def test_global_scaling_is_uniform(self):
        assert direction_density(2.0 * np.eye(3), np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)

    def test_stretching_concentrates_density(self):
        assert direction_density(np.diag([1.0, 2.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_singular_matrix(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            direction_density(np.array([[1.0, 0.0], [0.0, 0.0]]), v)

    def test_rejects_non_square(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            direction_density(np.ones((2, 3)), v)


class TestEstimateTheta:
    def test_mass_on_top_eigenvector_gives_zero(self):
        cov = cov_from_spectrum([1.0, 4.0])
        est = estimate_theta(eigvec_coords(cov, 4.0), cov)
        assert est.theta_hat == 0.0
        assert not est.boundary

    def test_profile_consistency(self, rng):
        cov = cov_from_spectrum(rng.uniform(0.3, 3.0, size=6))
        u = unit_direction(rng.standard_normal(6))
        est = estimate_theta(u, cov)
        assert est.loglik == log_direction_density(est.theta_hat, u, cov)
        assert est.loglik >= log_direction_density(scan_grid(cov), u, cov).max()

    def test_isotropic_spectrum_gives_zero(self):
        # the log-likelihood is 0 at every theta; its rounding noise is no maximum
        cov = cov_from_spectrum([2.0] * 4)
        est = estimate_theta(cov.eigenvectors.T @ unit_direction(np.array([1.0, 2, 3, 4])), cov)
        assert (est.theta_hat, est.beta_hat, est.loglik) == (0.0, 0.0, 0.0)

    def test_upper_grid_boundary(self):
        # mass on the lowest eigenvector: the likelihood rises in theta over
        # the whole scan range, so the estimate is the top grid point
        cov = cov_from_spectrum([1.0, 4.0, 9.0])
        est = estimate_theta(eigvec_coords(cov, 1.0), cov)
        assert est.boundary
        assert est.theta_hat == GRID_HI * float(np.median(cov.eigenvalues))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        log_theta=st.one_of(st.none(), st.floats(-4.0, 4.0)),
    )
    def test_matches_dense_grid_maximum(self, d, seed, log_theta):
        # the coarse scan plus the refinement on the slope reaches the maximum of a
        # 20,001-point grid on the same range; directions are uniform
        # (log_theta None) or drawn from the theta' = 10**log_theta law
        g = np.random.default_rng(seed)
        lam = 10.0 ** g.uniform(-3.0, 3.0, size=d)
        lam[:2] = 1e-3, 1e3  # the spectrum spans 6 decades
        cov = cov_from_spectrum(lam)
        coords = g.standard_normal(d)
        if log_theta is not None:
            coords *= np.sqrt(1.0 + 10.0**log_theta / cov.eigenvalues)
        u = unit_direction(coords)
        est = estimate_theta(u, cov)
        dense_max = float(log_direction_density(scan_grid(cov, 20_001), u, cov).max())
        assert est.loglik >= dense_max - 1e-9 * (1.0 + abs(dense_max))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        log_theta=st.one_of(st.none(), st.floats(-4.0, 4.0)),
    )
    def test_matches_bisection_reference(self, d, seed, log_theta):
        # the spectra and directions of test_matches_dense_grid_maximum; the
        # Newton refinement lands where the bisection did, to within 1e-11
        # plus the band where rounding hides the slope's sign, which is wide
        # only where the likelihood is flat at its maximum
        g = np.random.default_rng(seed)
        lam = 10.0 ** g.uniform(-3.0, 3.0, size=d)
        lam[:2] = 1e-3, 1e3
        cov = cov_from_spectrum(lam)
        coords = g.standard_normal(d)
        if log_theta is not None:
            coords *= np.sqrt(1.0 + 10.0**log_theta / cov.eigenvalues)
        u = unit_direction(coords)
        est = estimate_theta(u, cov)
        theta, loglik = bisection_reference(u, cov)
        if theta == 0.0 or est.theta_hat == 0.0:
            assert est.theta_hat == theta
        else:
            band = slope_rounding_band(theta, u, cov)
            assert abs(est.theta_hat - theta) <= 1e-11 * theta + 256 * band
        assert est.loglik >= loglik - 1e-13 * (1.0 + abs(loglik))

    @pytest.mark.parametrize("where, bound", [("above", 2e-13), ("below", 1e-9)])
    def test_matches_a_50_digit_maximizer(self, where, bound):
        # interior fits on 6-decade spectra.  Above: directions from the theta'
        # law with theta' 1e2 to 1e5.5 times the median eigenvalue, so that
        # theta_hat lies above most eigenvalues, where d S_2/S_1 - A_1 cancels.
        # Below: directions tilted slightly toward the smallest eigenvalue, so
        # that theta_hat lies far below every eigenvalue, where a slope summed
        # against 1/theta would cancel instead.
        errors = []
        for seed in range(80):
            g = np.random.default_rng(seed)
            lam = 10.0 ** g.uniform(-3.0, 3.0, size=10)
            lam[:2] = 1e-3, 1e3
            cov = cov_from_spectrum(lam)
            if where == "above":
                theta = 10.0 ** g.uniform(2.0, 5.5) * float(np.median(cov.eigenvalues))
                coords = np.sqrt(1.0 + theta / cov.eigenvalues) * g.standard_normal(10)
            else:
                tilt = 10.0 ** g.uniform(-5.0, -1.0)
                coords = np.sqrt(1.0 + tilt * cov.eigenvalues[-1] / cov.eigenvalues)
            u = unit_direction(coords)
            est = estimate_theta(u, cov)
            if est.theta_hat > 0.0 and not est.boundary:
                theta = decimal_maximizer(est.theta_hat, u, cov)
                errors.append(abs(est.theta_hat - theta) / theta)
        assert len(errors) >= 30
        assert max(errors) <= bound

    @pytest.mark.parametrize(
        "lam, w2, fallback",
        [
            ([1.0, 1e-9], [0.1, 0.9], "curvature"),  # l'' >= 0 at the first point
            ([1.0, 1e-7], [0.4, 0.6], "outside"),  # the first step leaves the bracket
        ],
    )
    def test_midpoint_fallback(self, monkeypatch, lam, w2, fallback):
        # the best grid point is theta = 0 and the maximum lies just above
        # it, where the likelihood bends over sharply: the first Newton step
        # from the bracket's midpoint is of no use, so the refinement bisects
        # instead, never leaves the bracket, and reaches the reference's
        # maximum
        cov = cov_from_spectrum(lam)
        u = cov.eigenvectors.T @ unit_direction(np.sqrt(w2))
        calls = recorded_newton_steps(monkeypatch)
        est = estimate_theta(u, cov)
        grid = scan_grid(cov)
        assert np.argmax(log_direction_density(grid, u, cov)) == 0
        (lo, _), (hi, _), (theta, step) = calls[:3]  # the bracket's ends, then the first step
        assert (lo, hi, theta) == (0.0, grid[1], 0.5 * grid[1])
        if fallback == "curvature":
            assert math.isnan(step)
        else:
            assert not lo < theta + step < hi
        assert all(lo <= t <= hi for t, _ in calls)
        ref_theta, ref_loglik = bisection_reference(u, cov)
        assert est.theta_hat > 0.0
        assert est.theta_hat == pytest.approx(ref_theta, rel=1e-11)
        assert est.loglik >= ref_loglik - 1e-13 * (1.0 + abs(ref_loglik))

    def test_few_newton_steps_on_simulated_fits(self, monkeypatch):
        # 300 fits shaped like simulate --dim 10 --latent 12 --samples 10000,
        # seed 0: a handful of Newton steps each, where bisection takes ~42
        calls = recorded_newton_steps(monkeypatch)
        steps = []
        for i in range(300):
            rng = run_rng(0, i)
            cov, _ = sample_covariance(sample_ground_truth(10, 12, rng), 10_000, 0.0, rng)
            calls.clear()
            estimate_confounding(cov)
            if len(calls) > 2:  # two calls test the bracket's ends, the rest are steps
                steps.append(len(calls) - 2)
        assert len(steps) >= 150
        assert np.median(steps) <= 8 and max(steps) <= 40

    @pytest.mark.parametrize(
        "lam, w2",
        [
            ([1e-3, 0.1, 1e3], [0.4, 0.6, 0.003]),  # higher mode at the larger theta
            ([1e3, 10.0, 0.01], [0.01, 0.5, 0.5]),  # higher mode at the smaller theta
            # from a seeded search: l = 4.923 at theta = 3.27 above l = 4.904 at
            # theta = 54.4, then l = 0.510 at theta = 0.0014 below l = 0.587 at
            # theta = 0.202
            (
                10.0 ** np.array([2.93, 1.54, 0.94, 0.44, -0.63, -1.29, -1.44]),
                np.square([0.029, -0.0095, -0.1747, -0.0762, -0.0008, -0.9777, -0.0831]),
            ),
            (10.0 ** np.array([1.12, -1.79, -3.59]), np.square([0.098, 0.522, 0.847])),
        ],
    )
    def test_two_modes_lands_on_the_higher(self, lam, w2):
        cov = cov_from_spectrum(lam)
        u = cov.eigenvectors.T @ unit_direction(np.sqrt(w2))
        grid = scan_grid(cov, 20_001)
        f = log_direction_density(grid, u, cov)
        peaks = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] > f[2:])) + 1
        assert len(peaks) == 2  # two interior local maxima on the dense grid
        top = peaks[np.argmax(f[peaks])]
        est = estimate_theta(u, cov)
        assert est.loglik == log_direction_density(est.theta_hat, u, cov)
        assert est.loglik >= f[top] - 1e-9 * (1.0 + abs(f[top]))
        assert grid[top - 1] <= est.theta_hat <= grid[top + 1]

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(0.0, 2 * math.pi, allow_nan=False))
    def test_total_on_the_circle(self, angle):
        cov = cov_from_spectrum([1.0, 4.0])
        est = estimate_theta(np.array([math.cos(angle), math.sin(angle)]), cov)
        assert math.isfinite(est.theta_hat) and est.theta_hat >= 0.0

    def test_recovers_theta_on_wide_spectrum(self):
        # draws from the theta' = 10 direction law on a spectrum spanning
        # several decades: the estimate lands within a factor 2 of 10 in at
        # least 90% of seeds
        lam = np.geomspace(1e-2, 1e3, 200)
        cov = cov_from_spectrum(lam)
        hits = 0
        for seed in range(200):
            g = np.random.default_rng(seed)
            b = g.standard_normal(200)
            coords = np.sqrt(1.0 + 10.0 / cov.eigenvalues) * b
            theta = estimate_theta(unit_direction(coords), cov).theta_hat
            hits += 5.0 <= theta <= 20.0
        assert hits >= 180


class TestBetaFromTheta:
    def test_zero(self):
        cov = cov_from_spectrum([1.0, 4.0])
        assert beta_from_theta(0.0, cov) == 0.0

    def test_identity_covariance(self):
        cov = cov_from_spectrum([1.0, 1.0])
        assert beta_from_theta(1.0, cov) == pytest.approx(0.5)

    def test_diagonal_spectrum(self):
        cov = cov_from_spectrum([1.0, 4.0])
        assert beta_from_theta(4.0, cov) == pytest.approx(2.5 / 3.5)

    @settings(max_examples=30, deadline=None)
    @given(
        t1=st.floats(0.0, 1e6, allow_nan=False),
        t2=st.floats(0.0, 1e6, allow_nan=False),
    )
    def test_monotone_and_bounded(self, t1, t2):
        cov = cov_from_spectrum([0.5, 2.0, 3.0])
        lo, hi = sorted([t1, t2])
        b_lo, b_hi = beta_from_theta(lo, cov), beta_from_theta(hi, cov)
        assert 0.0 <= b_lo <= b_hi < 1.0


class TestEstimateConfounding:
    def test_purely_causal_estimates_low(self):
        hits = 0
        for seed in range(100):
            g = np.random.default_rng(seed)
            t = sample_ground_truth(10, 10, g)
            t = GroundTruth(m=t.m, a=t.a, c=np.zeros(10))
            ds = generate_samples(t, 10000, 0.0, g)
            hits += estimate_confounding(empirical_covariance(ds)).beta_hat < 0.2
        assert hits >= 80

    def test_purely_confounded_estimates_high(self):
        hits = 0
        for seed in range(100):
            g = np.random.default_rng(seed)
            t = sample_ground_truth(10, 10, g)
            t = GroundTruth(m=t.m, a=np.zeros(10), c=t.c)
            if not np.any(t.c):
                continue
            ds = generate_samples(t, 10000, 0.0, g)
            hits += estimate_confounding(empirical_covariance(ds)).beta_hat > 0.75
        assert hits >= 80

    def test_beta_theta_identity_as_stored(self, rng):
        t = sample_ground_truth(5, 5, np.random.default_rng(2))
        ds = generate_samples(t, 2000, 0.0, np.random.default_rng(2))
        cov = empirical_covariance(ds)
        est = estimate_confounding(cov)
        assert est.beta_hat == cov.tau_inv * est.theta_hat / (
            cov.tau_inv * est.theta_hat + 1.0
        )
        assert 0.0 <= est.beta_hat <= 1.0

    @pytest.mark.parametrize("value", [0.1, 1e5 / 3])
    def test_constant_target_is_zero_signal(self, rng, value):
        data = DataMatrix(x=rng.standard_normal((300, 3)), y=np.full(300, value))
        with pytest.raises(ZeroSignalError):
            estimate_confounding(empirical_covariance(data))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orthogonal_design_gives_zero(self, seed):
        # X'X is proportional to I: a flat spectrum has no low-eigenvalue space
        cov = factorial_cov(seed)
        np.testing.assert_array_equal(cov.eigenvalues, [1.0, 1.0, 1.0])
        est = estimate_confounding(cov)
        assert (est.theta_hat, est.beta_hat, est.loglik) == (0.0, 0.0, 0.0)

    def test_no_confounding_answer_is_exact_zero(self):
        # where the likelihood falls from theta = 0 the estimate is exactly 0,
        # not a rounding-level maximizer; runs 1 and 9 here are such cases
        cfg = ExperimentConfig(mode="simulate", d=10, latent=12, n=10000, runs=12, seed=0)
        thetas = [r["theta_hat"] for r in run(cfg)["records"]]
        assert all(t == 0.0 or t > 1e-12 for t in thetas)
        assert thetas[1] == 0.0 and thetas[9] == 0.0


class TestConcentration:
    def test_concentrated_loglik_zeros(self):
        cov = cov_from_spectrum([1.0, 4.0])
        assert concentrated_loglik(0.0, 0.0, cov) == 0.0
        assert concentrated_loglik(0.0, 3.0, cov) == pytest.approx(0.0, abs=1e-14)

    def test_corrected_variant_matches_scalar_arithmetic(self):
        cov = cov_from_spectrum([1.0, 4.0])
        log_det = math.log(2.0) + math.log(1.25)
        log_ratio = math.log(0.65)  # tau(R_0 R_1^{-1}) with tau(R_0) = 1
        expected = -0.5 * (log_det + 2 * log_ratio)
        assert concentrated_loglik(1.0, 0.0, cov) == pytest.approx(expected, abs=1e-14)

    def test_normalized_log_density_concentrates(self):
        # per-dimension average of the log density tightens as d grows and
        # its mean approaches the concentrated value
        sds = []
        for d in (10, 50, 200, 1000):
            g = np.random.default_rng(d)
            cov = cov_from_spectrum(g.uniform(0.5, 2.0, size=d))
            scale = np.sqrt(1.0 + 1.0 / cov.eigenvalues)
            vals = []
            for _ in range(500):
                b = g.standard_normal(d)
                u = unit_direction(scale * b)
                vals.append(log_direction_density(1.0, u, cov) / d)
            vals = np.asarray(vals)
            sds.append(vals.std(ddof=1))
            if d == 1000:
                target = concentrated_loglik(1.0, 1.0, cov) / d
                se = vals.std(ddof=1) / math.sqrt(len(vals))
                assert abs(vals.mean() - target) <= 3 * se
        assert all(s2 < s1 for s1, s2 in zip(sds, sds[1:]))

    def test_bound_identity_covariance(self):
        cov = cov_from_spectrum([1.0, 1.0, 1.0])
        eps = 0.5
        assert concentration_bound(0.0, 0.0, cov, eps) == pytest.approx(
            1.0 - 2.0 / (3 * eps**2)
        )

    @pytest.mark.parametrize("epsilon", [0.0, -0.5])
    def test_bound_rejects_nonpositive_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            concentration_bound(1.0, 1.0, cov_from_spectrum([1.0, 2.0]), epsilon)

    def test_bound_limits(self):
        small = cov_from_spectrum([1.0, 2.0])
        big = cov_from_spectrum(np.linspace(1.0, 2.0, 2000))
        assert concentration_bound(1.0, 1.0, small, 1e-6) < -1e6
        assert concentration_bound(1.0, 1.0, big, 0.5) > 0.9


class TestInvariance:
    def test_scale_and_rotation_leave_beta_unchanged(self):
        for seed in range(10):
            g = np.random.default_rng(seed)
            t = sample_ground_truth(5, 5, g)
            ds = generate_samples(t, 1500, 0.0, g)
            base = estimate_confounding(empirical_covariance(ds)).beta_hat
            c = float(g.uniform(0.1, 10.0))
            scaled = estimate_confounding(
                empirical_covariance(DataMatrix(x=c * ds.x, y=ds.y))
            ).beta_hat
            u = random_orthogonal(5, g)
            rotated = estimate_confounding(
                empirical_covariance(DataMatrix(x=ds.x @ u.T, y=ds.y))
            ).beta_hat
            assert abs(scaled - base) <= 1e-6
            assert abs(rotated - base) <= 1e-6


DIAG_149 = cov_from_spectrum([1.0, 4.0, 9.0])


class TestThetaCheck:
    @pytest.mark.parametrize("theta", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda t: log_direction_density(t, np.array([0.0, 0.6, 0.8]), DIAG_149),
            lambda t: log_direction_density(np.array([0.0, t]), np.array([0.0, 0.6, 0.8]), DIAG_149),
            lambda t: beta_from_theta(t, DIAG_149),
            lambda t: concentrated_loglik(t, 1.0, DIAG_149),
            lambda t: concentrated_loglik(1.0, t, DIAG_149),
            lambda t: concentration_bound(t, 1.0, DIAG_149, 0.1),
            lambda t: concentration_bound(1.0, t, DIAG_149, 0.1),
        ],
        ids=[
            "log_direction_density",
            "log_direction_density_array",
            "beta_from_theta",
            "concentrated_loglik_theta",
            "concentrated_loglik_theta_prime",
            "concentration_bound_theta",
            "concentration_bound_theta_prime",
        ],
    )
    def test_rejects_negative_or_nan(self, call, theta):
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            call(theta)


class TestUnitCheck:
    @pytest.mark.parametrize("vector", [[1.0, 1.0], [0.6, 0.8 + 1e-9], [math.nan, 0.0]])
    @pytest.mark.parametrize(
        "call",
        [
            lambda u: log_direction_density(1.0, u, cov_from_spectrum([1.0, 4.0])),
            lambda u: estimate_theta(u, cov_from_spectrum([1.0, 4.0])),
            lambda u: statistic_T(u, cov_from_spectrum([1.0, 4.0])),
            lambda v: direction_density(np.diag([1.0, 2.0]), v),
        ],
        ids=["log_direction_density", "estimate_theta", "statistic_T", "direction_density"],
    )
    def test_rejects_non_unit(self, call, vector):
        with pytest.raises(ValueError, match="not unit length"):
            call(np.array(vector))


class TestIllConditioning:
    """Covariances just inside the RANK_EPS threshold, in a random eigenbasis."""

    @staticmethod
    def matrix(d, log_cond, g):
        q = random_orthogonal(d, g)
        return q, q @ np.diag(np.geomspace(1.0, 10.0**-log_cond, d)) @ q.T

    @pytest.mark.parametrize("where", ["top", "bottom", "random"])
    @pytest.mark.parametrize("log_cond", [9.0, 9.9])
    @pytest.mark.parametrize("d", [2, 10, 100])
    def test_fits_are_finite_and_quiet(self, d, log_cond, where):
        g = np.random.default_rng([d, int(10 * log_cond)])
        q, s = self.matrix(d, log_cond, g)
        a = {"top": q[:, 0], "bottom": q[:, -1], "random": g.standard_normal(d)}[where]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = CovarianceModel.from_matrices(s, s @ a, n=10 * d)
            est = estimate_confounding(cov)
            res = run_nonconfounding_test(
                cov, np.random.default_rng(0).standard_normal((200, cov.d)))
        assert math.isfinite(est.theta_hat) and est.theta_hat >= 0.0
        assert 0.0 <= est.beta_hat <= 1.0
        assert 0.0 < res.p_value <= 1.0

    @pytest.mark.parametrize("d", [2, 10, 100])
    def test_rank_deficient_just_past_the_threshold(self, d):
        g = np.random.default_rng(d)
        _, s = self.matrix(d, -math.log10(0.99 * RANK_EPS), g)
        with pytest.raises(RankDeficientError):
            CovarianceModel.from_matrices(s, np.ones(d))
