"""Direction density, likelihood maximization and concentration diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    DataMatrix,
    ExperimentConfig,
    NumericOverflowError,
    SingularMatrixError,
    UnitDirection,
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
    run_simulation_study,
    sample_ground_truth,
    unit_direction,
)
from specbeta.estimator import GRID_HI, GRID_LO, GRID_POINTS
from specbeta.genmodel import GroundTruth

from conftest import cov_from_spectrum, eigvec_for, random_orthogonal


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


class TestLogDirectionDensity:
    def test_zero_theta_is_exactly_zero(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            cov = cov_from_spectrum(rng.uniform(0.2, 5.0, size=d))
            v = unit_direction(rng.standard_normal(d))
            assert log_direction_density(0.0, v, cov) == 0.0

    def test_mass_on_small_eigenvalue_raises_density(self):
        cov = cov_from_spectrum([1.0, 4.0])
        low = eigvec_for(cov, 1.0)
        high = eigvec_for(cov, 4.0)
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
            direct = math.exp(log_direction_density(theta, v, cov))
            oracle = direction_density(sqrt_r_theta(theta, cov), v)
            assert direct == pytest.approx(oracle, rel=1e-10)

    def test_rejects_negative_theta(self):
        cov = cov_from_spectrum([1.0, 2.0])
        v = eigvec_for(cov, 1.0)
        with pytest.raises(ValueError):
            log_direction_density(-1.0, v, cov)

    def test_array_matches_scalar_calls(self, rng):
        # one call over an array of theta gives exactly the scalar values,
        # in the shape of the input, with an exact 0.0 at theta = 0
        for _ in range(100):
            d = int(rng.integers(2, 40))
            cov = cov_from_spectrum(10.0 ** rng.uniform(-3, 3, size=d))
            v = unit_direction(rng.standard_normal(d))
            thetas = np.concatenate([scan_grid(cov), 10.0 ** rng.uniform(-8, 8, 39)])
            vals = log_direction_density(thetas, v, cov)
            assert vals.shape == thetas.shape
            assert vals[0] == 0.0
            for theta, val in zip(thetas, vals):
                assert val == log_direction_density(float(theta), v, cov)
            square = log_direction_density(thetas.reshape(16, 15), v, cov)
            np.testing.assert_array_equal(square, vals.reshape(16, 15))

    def test_array_errors_match_scalar(self):
        cov = cov_from_spectrum([0.5, 2.0])
        v = eigvec_for(cov, 2.0)
        with pytest.raises(ValueError):
            log_direction_density(np.array([0.0, 1.0, -1.0]), v, cov)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError):
                log_direction_density(1.5e308, v, cov)
            with pytest.raises(NumericOverflowError):
                log_direction_density(np.array([0.0, 1.5e308]), v, cov)


class TestDirectionDensity:
    def test_identity_matrix(self, rng):
        v = UnitDirection(v=np.array([0.6, 0.8]))
        assert direction_density(np.eye(2), v) == pytest.approx(1.0)

    def test_global_scaling_is_uniform(self):
        v = UnitDirection(v=np.array([0.0, 0.0, 1.0]))
        assert direction_density(2.0 * np.eye(3), v) == pytest.approx(1.0)

    def test_stretching_concentrates_density(self):
        v = UnitDirection(v=np.array([0.0, 1.0]))
        assert direction_density(np.diag([1.0, 2.0]), v) == pytest.approx(2.0)

    def test_singular_matrix(self):
        v = UnitDirection(v=np.array([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            direction_density(np.array([[1.0, 0.0], [0.0, 0.0]]), v)

    def test_rejects_non_square(self):
        v = UnitDirection(v=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            direction_density(np.ones((2, 3)), v)


class TestEstimateTheta:
    def test_mass_on_top_eigenvector_gives_zero(self):
        cov = cov_from_spectrum([1.0, 4.0])
        est = estimate_theta(eigvec_for(cov, 4.0), cov)
        assert est.theta == 0.0
        assert not est.boundary

    def test_profile_consistency(self, rng):
        cov = cov_from_spectrum(rng.uniform(0.3, 3.0, size=6))
        v = unit_direction(rng.standard_normal(6))
        est = estimate_theta(v, cov)
        assert est.loglik == log_direction_density(est.theta, v, cov)
        assert est.loglik >= log_direction_density(scan_grid(cov), v, cov).max()

    def test_upper_grid_boundary(self):
        # mass on the lowest eigenvector: the likelihood rises in theta over
        # the whole scan range, so the estimate is the top grid point
        cov = cov_from_spectrum([1.0, 4.0, 9.0])
        est = estimate_theta(eigvec_for(cov, 1.0), cov)
        assert est.boundary
        assert est.theta == GRID_HI * float(np.median(cov.eigenvalues))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        log_theta=st.one_of(st.none(), st.floats(-4.0, 4.0)),
    )
    def test_matches_dense_grid_maximum(self, d, seed, log_theta):
        # the coarse scan plus bisection on the slope reaches the maximum of a
        # 20,001-point grid on the same range; directions are uniform
        # (log_theta None) or drawn from the theta' = 10**log_theta law
        g = np.random.default_rng(seed)
        lam = 10.0 ** g.uniform(-3.0, 3.0, size=d)
        lam[:2] = 1e-3, 1e3  # the spectrum spans 6 decades
        cov = cov_from_spectrum(lam)
        coords = g.standard_normal(d)
        if log_theta is not None:
            coords *= np.sqrt(1.0 + 10.0**log_theta / cov.eigenvalues)
        v = unit_direction(cov.eigenvectors @ coords)
        est = estimate_theta(v, cov)
        dense_max = float(log_direction_density(scan_grid(cov, 20_001), v, cov).max())
        assert est.loglik >= dense_max - 1e-9 * (1.0 + abs(dense_max))

    @pytest.mark.parametrize(
        "lam, w2",
        [
            ([1e-3, 0.1, 1e3], [0.4, 0.6, 0.003]),  # higher mode at the larger theta
            ([1e3, 10.0, 0.01], [0.01, 0.5, 0.5]),  # higher mode at the smaller theta
        ],
    )
    def test_two_modes_lands_on_the_higher(self, lam, w2):
        cov = cov_from_spectrum(lam)
        v = unit_direction(np.sqrt(w2))
        grid = scan_grid(cov, 20_001)
        f = log_direction_density(grid, v, cov)
        peaks = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] > f[2:])) + 1
        assert len(peaks) == 2  # two interior local maxima on the dense grid
        top = peaks[np.argmax(f[peaks])]
        est = estimate_theta(v, cov)
        assert est.loglik == log_direction_density(est.theta, v, cov)
        assert est.loglik >= f[top] - 1e-9 * (1.0 + abs(f[top]))
        assert grid[top - 1] <= est.theta <= grid[top + 1]

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(0.0, 2 * math.pi, allow_nan=False))
    def test_total_on_the_circle(self, angle):
        cov = cov_from_spectrum([1.0, 4.0])
        v = UnitDirection(v=np.array([math.cos(angle), math.sin(angle)]))
        est = estimate_theta(v, cov)
        assert math.isfinite(est.theta) and est.theta >= 0.0

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
            v = unit_direction(cov.eigenvectors @ coords)
            theta = estimate_theta(v, cov).theta
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
            t = GroundTruth(m=t.m, a=t.a, c=np.zeros(10), sigma_a=t.sigma_a, sigma_c=0.0)
            ds = generate_samples(t, 10000, rng=g)
            hits += estimate_confounding(empirical_covariance(ds.data)).beta_hat < 0.2
        assert hits >= 80

    def test_purely_confounded_estimates_high(self):
        hits = 0
        for seed in range(100):
            g = np.random.default_rng(seed)
            t = sample_ground_truth(10, 10, g)
            t = GroundTruth(m=t.m, a=np.zeros(10), c=t.c, sigma_a=0.0, sigma_c=t.sigma_c)
            if not np.any(t.c):
                continue
            ds = generate_samples(t, 10000, rng=g)
            hits += estimate_confounding(empirical_covariance(ds.data)).beta_hat > 0.75
        assert hits >= 80

    def test_beta_theta_identity_as_stored(self, rng):
        t = sample_ground_truth(5, 5, 2)
        ds = generate_samples(t, 2000, rng=2)
        est = estimate_confounding(empirical_covariance(ds.data))
        assert est.beta_hat == est.tau_inv * est.theta_hat / (
            est.tau_inv * est.theta_hat + 1.0
        )
        assert 0.0 <= est.beta_hat <= 1.0

    @pytest.mark.parametrize("value", [0.1, 1e5 / 3])
    def test_constant_target_is_zero_signal(self, rng, value):
        data = DataMatrix(x=rng.standard_normal((300, 3)), y=np.full(300, value))
        with pytest.raises(ZeroSignalError):
            estimate_confounding(empirical_covariance(data))

    def test_no_confounding_answer_is_exact_zero(self):
        # where the likelihood falls from theta = 0 the estimate is exactly 0,
        # not a rounding-level maximizer; runs 1 and 9 here are such cases
        cfg = ExperimentConfig(mode="simulate", d=10, latent=12, n=10000, runs=12, seed=0)
        thetas = [r["theta_hat"] for r in run_simulation_study(cfg).records]
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
                v = unit_direction(cov.eigenvectors @ (scale * b))
                vals.append(log_direction_density(1.0, v, cov) / d)
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
            ds = generate_samples(t, 1500, rng=g)
            base = estimate_confounding(empirical_covariance(ds.data)).beta_hat
            c = float(g.uniform(0.1, 10.0))
            scaled = estimate_confounding(
                empirical_covariance(DataMatrix(x=c * ds.data.x, y=ds.data.y))
            ).beta_hat
            u = random_orthogonal(5, g)
            rotated = estimate_confounding(
                empirical_covariance(DataMatrix(x=ds.data.x @ u.T, y=ds.data.y))
            ).beta_hat
            assert abs(scaled - base) <= 1e-6
            assert abs(rotated - base) <= 1e-6
