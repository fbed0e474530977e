"""Test statistic, null generators and the Monte-Carlo hypothesis test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from specbeta import (
    CovarianceModel,
    DataMatrix,
    UnitDirection,
    ZeroSignalError,
    empirical_covariance,
    generate_samples,
    null_samples_mixed_chi2,
    null_samples_sphere,
    sample_ground_truth,
    statistic_T,
    unit_direction,
)
from specbeta import test_nonconfounding as run_nonconfounding_test
from specbeta.genmodel import GroundTruth

from conftest import cov_from_spectrum, eigvec_for, random_orthogonal


class TestStatistic:
    def test_identity_covariance_is_zero(self, rng):
        cov = cov_from_spectrum([1.0, 1.0, 1.0])
        v = unit_direction(rng.standard_normal(3), cov)
        assert statistic_T(v, cov) == pytest.approx(0.0, abs=1e-15)

    def test_mass_on_small_eigenvalue_is_positive(self):
        cov = cov_from_spectrum([1.0, 4.0])
        assert statistic_T(eigvec_for(cov, 1.0), cov) == pytest.approx(
            0.2651650429449553, abs=1e-12
        )

    def test_mass_on_large_eigenvalue_is_negative(self):
        cov = cov_from_spectrum([1.0, 4.0])
        assert statistic_T(eigvec_for(cov, 4.0), cov) == pytest.approx(
            -0.2651650429449553, abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_balanced_spectrum_vanishes(self, seed):
        g = np.random.default_rng(seed)
        cov = cov_from_spectrum([2.5, 2.5, 2.5, 2.5])
        v = unit_direction(g.standard_normal(4), cov)
        assert abs(statistic_T(v, cov)) <= 1e-10

    def test_rotation_invariance(self, rng):
        d = 5
        m = rng.standard_normal((d, d + 2))
        s = m @ m.T
        u = random_orthogonal(d, rng)
        raw = rng.standard_normal(d)
        cov = CovarianceModel.from_matrices(s, np.zeros(d))
        cov_rot = CovarianceModel.from_matrices(u @ s @ u.T, np.zeros(d))
        t1 = statistic_T(unit_direction(raw, cov), cov)
        t2 = statistic_T(unit_direction(u @ raw, cov_rot), cov_rot)
        assert abs(t1 - t2) <= 1e-10


class TestNullSamplers:
    def test_sphere_identity_covariance_all_zero(self):
        cov = cov_from_spectrum([1.0, 1.0, 1.0])
        samples = null_samples_sphere(cov, 500, 0)
        np.testing.assert_allclose(samples, 0.0, atol=1e-14)

    def test_sphere_mean_zero(self, rng):
        cov = cov_from_spectrum(rng.uniform(0.3, 4.0, size=8))
        samples = null_samples_sphere(cov, 100000, 1)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean()) <= 3 * se

    def test_sphere_two_dim_range(self):
        cov = cov_from_spectrum([1.0, 4.0])
        samples = null_samples_sphere(cov, 100000, 2)
        assert samples.min() >= -0.2652 and samples.max() <= 0.2652

    def test_chi2_identity_mean_zero(self):
        cov = cov_from_spectrum(np.ones(10))
        samples = null_samples_mixed_chi2(cov, 100000, 3)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean()) <= 3 * se

    def test_chi2_close_to_sphere_at_moderate_dimension(self):
        # spectra with widely spread eigenvalues: the unnormalized chi-square
        # mixture tracks the exact sphere null closely at d = 50
        g = np.random.default_rng(4)
        m = g.standard_normal((50, 50))
        cov = CovarianceModel.from_matrices(m @ m.T / 50, np.zeros(50))
        a = null_samples_sphere(cov, 100000, 5)
        b = null_samples_mixed_chi2(cov, 100000, 6)
        assert stats.ks_2samp(a, b).statistic <= 0.03

    def test_chi2_degrades_at_tiny_dimension(self):
        g = np.random.default_rng(7)
        m = g.standard_normal((2, 2))
        cov = CovarianceModel.from_matrices(m @ m.T / 2, np.zeros(2))
        a = null_samples_sphere(cov, 100000, 8)
        b = null_samples_mixed_chi2(cov, 100000, 9)
        assert stats.ks_2samp(a, b).statistic > 0.06

    def test_count_floor(self):
        cov = cov_from_spectrum([1.0, 2.0])
        with pytest.raises(ValueError):
            null_samples_sphere(cov, 99, 0)
        with pytest.raises(ValueError):
            null_samples_mixed_chi2(cov, 10, 0)


class TestNonconfoundingTest:
    def test_deterministic(self):
        t = sample_ground_truth(5, 5, 3)
        ds = generate_samples(t, 2000, rng=3)
        r1 = run_nonconfounding_test(empirical_covariance(ds.data), 1000, rng=42)
        r2 = run_nonconfounding_test(empirical_covariance(ds.data), 1000, rng=42)
        assert r1.t_observed == r2.t_observed
        assert r1.p_value == r2.p_value
        np.testing.assert_array_equal(r1.null_samples, r2.null_samples)

    def test_p_value_formula_and_range(self):
        t = sample_ground_truth(6, 6, 1)
        ds = generate_samples(t, 3000, rng=1)
        res = run_nonconfounding_test(empirical_covariance(ds.data), 500, rng=0)
        recomputed = (1 + int(np.sum(res.null_samples >= res.t_observed))) / 501
        assert res.p_value == recomputed
        assert 0.0 < res.p_value <= 1.0

    def test_confounded_data_rejects(self):
        rejections = 0
        for seed in range(200):
            g = np.random.default_rng(seed)
            t = sample_ground_truth(10, 10, g)
            t = GroundTruth(m=t.m, a=np.zeros(10), c=t.c, sigma_a=0.0, sigma_c=max(t.sigma_c, 0.2))
            ds = generate_samples(t, 10000, rng=g)
            res = run_nonconfounding_test(empirical_covariance(ds.data), 1000, rng=g)
            rejections += res.p_value < 0.05
        # observed rate is about 0.75 over these seeds; a clear majority
        assert rejections >= 130

    def test_mixed_chi2_method_runs(self):
        t = sample_ground_truth(10, 10, 2)
        ds = generate_samples(t, 2000, rng=2)
        res = run_nonconfounding_test(
            empirical_covariance(ds.data), 200, method="mixed_chi2", rng=1
        )
        assert res.method == "mixed_chi2"
        assert res.null_count == 200

    def test_unknown_method(self):
        t = sample_ground_truth(3, 3, 0)
        ds = generate_samples(t, 500, rng=0)
        with pytest.raises(ValueError):
            run_nonconfounding_test(empirical_covariance(ds.data), 200, method="bootstrap", rng=0)

    def test_zero_signal_propagates(self):
        x = np.array(
            [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], dtype=float
        )
        y = np.array([1.0, -1.0, -1.0, 1.0])
        with pytest.raises(ZeroSignalError):
            run_nonconfounding_test(empirical_covariance(DataMatrix(x=x, y=y)), 200, rng=0)

    @pytest.mark.parametrize("value", [0.1, 1e5 / 3])
    def test_constant_target_is_zero_signal(self, rng, value):
        data = DataMatrix(x=rng.standard_normal((300, 3)), y=np.full(300, value))
        with pytest.raises(ZeroSignalError):
            run_nonconfounding_test(empirical_covariance(data), 200, rng=0)
