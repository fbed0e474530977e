"""Test statistic, null generators and the Monte-Carlo hypothesis test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    CovarianceModel,
    DataMatrix,
    ZeroSignalError,
    empirical_covariance,
    generate_samples,
    null_samples_sphere,
    sample_ground_truth,
    statistic_T,
    unit_direction,
)
from specbeta import test_nonconfounding as run_nonconfounding_test
from specbeta.cdtest import MIN_NULL_COUNT
from specbeta.genmodel import GroundTruth

from conftest import cov_from_spectrum, eigvec_coords, factorial_cov, random_orthogonal


class TestStatistic:
    def test_identity_covariance_is_zero(self, rng):
        cov = cov_from_spectrum([1.0, 1.0, 1.0])
        u = unit_direction(rng.standard_normal(3))
        assert statistic_T(u, cov) == pytest.approx(0.0, abs=1e-15)

    def test_mass_on_small_eigenvalue_is_positive(self):
        cov = cov_from_spectrum([1.0, 4.0])
        assert statistic_T(eigvec_coords(cov, 1.0), cov) == pytest.approx(
            0.2651650429449553, abs=1e-12
        )

    def test_mass_on_large_eigenvalue_is_negative(self):
        cov = cov_from_spectrum([1.0, 4.0])
        assert statistic_T(eigvec_coords(cov, 4.0), cov) == pytest.approx(
            -0.2651650429449553, abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_balanced_spectrum_vanishes(self, seed):
        g = np.random.default_rng(seed)
        cov = cov_from_spectrum([2.5, 2.5, 2.5, 2.5])
        u = unit_direction(g.standard_normal(4))
        assert abs(statistic_T(u, cov)) <= 1e-10

    def test_rotation_invariance(self, rng):
        d = 5
        m = rng.standard_normal((d, d + 2))
        s = m @ m.T
        u = random_orthogonal(d, rng)
        raw = rng.standard_normal(d)
        cov = CovarianceModel.from_matrices(s, np.zeros(d))
        cov_rot = CovarianceModel.from_matrices(u @ s @ u.T, np.zeros(d))
        t1 = statistic_T(cov.eigenvectors.T @ unit_direction(raw), cov)
        t2 = statistic_T(cov_rot.eigenvectors.T @ unit_direction(u @ raw), cov_rot)
        assert abs(t1 - t2) <= 1e-10


class TestNullSamplers:
    def test_sphere_identity_covariance_all_zero(self):
        cov = cov_from_spectrum([1.0, 1.0, 1.0])
        samples = null_samples_sphere(cov, np.random.default_rng(0).standard_normal((500, cov.d)))
        np.testing.assert_allclose(samples, 0.0, atol=1e-14)

    def test_sphere_mean_zero(self, rng):
        cov = cov_from_spectrum(rng.uniform(0.3, 4.0, size=8))
        samples = null_samples_sphere(
            cov, np.random.default_rng(1).standard_normal((100000, cov.d)))
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean()) <= 3 * se

    def test_sphere_two_dim_range(self):
        cov = cov_from_spectrum([1.0, 4.0])
        samples = null_samples_sphere(
            cov, np.random.default_rng(2).standard_normal((100000, cov.d)))
        assert samples.min() >= -0.2652 and samples.max() <= 0.2652

    # the in-place squaring must give the bytes of the formula written out
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_bytes_match_formulas(self, seed):
        g = np.random.default_rng(seed)
        m = g.standard_normal((7, 9))
        cov = CovarianceModel.from_matrices(m @ m.T / 9, np.zeros(7))
        inv = 1.0 / cov.eigenvalues
        root_d = np.sqrt(cov.d)

        b = np.random.Generator(np.random.PCG64(seed)).standard_normal((300, cov.d))
        w2 = b * b
        w2 = w2 / w2.sum(axis=1, keepdims=True)
        sphere = (w2 @ inv - cov.tau_inv) / root_d
        normals = np.random.default_rng(seed).standard_normal((300, cov.d))
        assert null_samples_sphere(cov, normals).tobytes() == sphere.tobytes()

    def test_count_floor(self):
        cov = cov_from_spectrum([1.0, 2.0])
        with pytest.raises(ValueError):
            null_samples_sphere(cov, np.random.default_rng(0).standard_normal((99, cov.d)))

    @pytest.mark.parametrize("shape", [(100, 1), (100, 3), (100,), (1, 100, 2)])
    def test_block_of_the_wrong_shape(self, shape):
        cov = cov_from_spectrum([1.0, 2.0])
        with pytest.raises(ValueError, match="null block must be"):
            null_samples_sphere(cov, np.ones(shape))

    @pytest.mark.parametrize("rows", [0, 1, 99])
    def test_block_of_too_few_rows(self, rows):
        cov = cov_from_spectrum([1.0, 2.0])
        with pytest.raises(ValueError, match=f"must be >= {MIN_NULL_COUNT}, got {rows}$"):
            null_samples_sphere(cov, np.ones((rows, 2)))
        with pytest.raises(ValueError, match=f"must be >= {MIN_NULL_COUNT}, got {rows}$"):
            run_nonconfounding_test(cov_from_spectrum([1.0, 2.0], sigma_xy=[1.0, 1.0]),
                                    np.ones((rows, 2)))

    def test_the_block_is_scratch_space(self):
        # overwritten with the squared unit directions, so a block reused would be no sample
        cov = cov_from_spectrum([1.0, 2.0, 5.0])
        normals = np.random.default_rng(3).standard_normal((200, 3))
        directions = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        null_samples_sphere(cov, normals)
        np.testing.assert_allclose(normals, directions**2, rtol=1e-14)


class TestNonconfoundingTest:
    def test_deterministic(self):
        t = sample_ground_truth(5, 5, np.random.default_rng(3))
        cov = empirical_covariance(generate_samples(t, 2000, 0.0, np.random.default_rng(3)))
        r1 = run_nonconfounding_test(cov, np.random.default_rng(42).standard_normal((1000, cov.d)))
        r2 = run_nonconfounding_test(cov, np.random.default_rng(42).standard_normal((1000, cov.d)))
        assert r1.t_observed == r2.t_observed
        assert r1.p_value == r2.p_value
        # the statistic draws nothing, so the test's null is this stream's first draw
        null1 = null_samples_sphere(cov, np.random.default_rng(42).standard_normal((1000, cov.d)))
        null2 = null_samples_sphere(cov, np.random.default_rng(42).standard_normal((1000, cov.d)))
        np.testing.assert_array_equal(null1, null2)
        assert r1.p_value == (1 + int(np.sum(null1 >= r1.t_observed))) / 1001

    def test_p_value_formula_and_range(self):
        t = sample_ground_truth(6, 6, np.random.default_rng(1))
        cov = empirical_covariance(generate_samples(t, 3000, 0.0, np.random.default_rng(1)))
        res = run_nonconfounding_test(cov, np.random.default_rng(0).standard_normal((500, cov.d)))
        null = null_samples_sphere(cov, np.random.default_rng(0).standard_normal((500, cov.d)))
        recomputed = (1 + int(np.sum(null >= res.t_observed))) / 501
        assert null.shape == (500,)
        assert res.p_value == recomputed
        assert 0.0 < res.p_value <= 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orthogonal_design_gives_p_one(self, seed):
        # on a flat spectrum the observed statistic and every null draw are rounding noise
        cov = factorial_cov(seed)
        res = run_nonconfounding_test(
            cov, np.random.default_rng(seed).standard_normal((1000, cov.d)))
        assert res.p_value == 1.0

    @pytest.mark.parametrize("scale", [1e-120, 1e-3, 1.0, 1e5, 1e120])
    def test_isotropic_spectrum_gives_p_one(self, rng, scale):
        cov = cov_from_spectrum([scale] * 7, sigma_xy=scale * rng.standard_normal(7), n=100)
        assert run_nonconfounding_test(cov, rng.standard_normal((1000, cov.d))).p_value == 1.0

    def test_confounded_data_rejects(self):
        rejections = 0
        for seed in range(200):
            g = np.random.default_rng(seed)
            t = sample_ground_truth(10, 10, g)
            t = GroundTruth(m=t.m, a=np.zeros(10), c=t.c)
            cov = empirical_covariance(generate_samples(t, 10000, 0.0, g))
            res = run_nonconfounding_test(cov, g.standard_normal((1000, cov.d)))
            rejections += res.p_value < 0.05
        # observed rate is about 0.75 over these seeds; a clear majority
        assert rejections >= 130

    def test_zero_signal_propagates(self):
        x = np.array(
            [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], dtype=float
        )
        y = np.array([1.0, -1.0, -1.0, 1.0])
        with pytest.raises(ZeroSignalError):
            run_nonconfounding_test(empirical_covariance(DataMatrix(x=x, y=y)),
                                    np.random.default_rng(0).standard_normal((200, 2)))

    @pytest.mark.parametrize("value", [0.1, 1e5 / 3])
    def test_constant_target_is_zero_signal(self, rng, value):
        data = DataMatrix(x=rng.standard_normal((300, 3)), y=np.full(300, value))
        with pytest.raises(ZeroSignalError):
            run_nonconfounding_test(empirical_covariance(data),
                                    np.random.default_rng(0).standard_normal((200, 3)))
