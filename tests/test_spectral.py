"""Covariance computation, eigendecomposition and the regression direction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    CovarianceModel,
    DataError,
    NumericError,
    ZeroSignalError,
    direction_coords,
    empirical_covariance,
    regression_vector,
    unit_direction,
)
from specbeta.spectral import _unit, covariance_from_moments

from conftest import cov_from_spectrum, random_orthogonal, sigma_xx


class TestEmpiricalCovarianceInput:
    def test_shape_properties(self, rng):
        cov = empirical_covariance(rng.standard_normal((5, 3)), np.zeros(5))
        assert cov.n == 5 and cov.d == 3

    def test_rejects_nan(self):
        x = np.ones((4, 2))
        x[1, 0] = np.nan
        with pytest.raises(ValueError, match="^non-finite entries in data$"):
            empirical_covariance(x, np.zeros(4))

    def test_rejects_inf_target(self):
        with pytest.raises(ValueError, match="^non-finite entries in data$"):
            empirical_covariance(np.ones((4, 2)), np.array([0.0, 1.0, np.inf, 2.0]))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match=r"^need n >= 2 and d >= 1, got n=1, d=2$"):
            empirical_covariance(np.ones((1, 2)), np.zeros(1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="^x has 4 rows but y has 3 entries$"):
            empirical_covariance(np.ones((4, 2)), np.zeros(3))

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (np.ones(4), np.zeros(4), "x must be 2-D"),
            (np.ones((4, 2, 1)), np.zeros(4), "x must be 2-D"),
            (np.ones((4, 2)), np.zeros((4, 1)), "y must be 1-D"),
        ],
    )
    def test_rejects_wrong_number_of_axes(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            empirical_covariance(x, y)


class TestEmpiricalCovariance:
    def test_two_point_example(self):
        cov = empirical_covariance(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
        np.testing.assert_allclose(sigma_xx(cov), [[1.0]])
        np.testing.assert_allclose(cov.sigma_xy, [1.0])

    def test_law_of_large_numbers(self, rng):
        x = rng.standard_normal((100000, 3))
        cov = empirical_covariance(x, rng.standard_normal(100000))
        assert np.max(np.abs(sigma_xx(cov) - np.eye(3))) < 0.05

    def test_too_few_samples(self, rng):
        x = rng.standard_normal((5, 10))
        with pytest.raises(DataError, match="^need n > d, got n=5, d=10$"):
            empirical_covariance(x, np.zeros(5))

    def test_rank_deficient_duplicate_column(self, rng):
        col = rng.standard_normal((50, 1))
        x, y = np.hstack([col, col]), rng.standard_normal(50)
        with pytest.raises(NumericError, match=r"^smallest eigenvalue .* is below 1e-10 x largest"):
            empirical_covariance(x, y)

    def test_records_sample_count(self, rng):
        x, y = rng.standard_normal((40, 3)), rng.standard_normal(40)
        assert empirical_covariance(x, y).n == 40

    @pytest.mark.parametrize("value", [0.1, 1e5 / 3, -7.3e-8])
    def test_constant_target_has_exactly_zero_cross_covariance(self, rng, value):
        x = rng.standard_normal((300, 4)) * np.array([1.0, 30.0, 0.03, 5.0])
        cov = empirical_covariance(x, np.full(300, value))
        assert np.all(cov.sigma_xy == 0.0)
        with pytest.raises(ZeroSignalError):
            regression_vector(cov)

    @pytest.mark.parametrize("n", [20, 10000])
    def test_weak_or_offset_signal_is_kept(self, rng, n):
        x = rng.standard_normal((n, 3))
        for y in (rng.standard_normal(n), 1e6 + 1e-3 * rng.standard_normal(n)):
            assert np.all(empirical_covariance(x, y).sigma_xy != 0.0)

    def test_tau_inv_is_mean_inverse_eigenvalue(self, rng):
        cov = empirical_covariance(rng.standard_normal((200, 5)), rng.standard_normal(200))
        assert cov.tau_inv == float(np.mean(1.0 / cov.eigenvalues))


class TestCovarianceFromMoments:
    """The zero-signal rule and the overflow check across the float range."""

    # sigma_yy * tr sigma_xx and ||sigma_xy||^2 underflow or overflow at these
    # scales, and the sums of the symmetrization and the trace at the last two
    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e308, 1.7e308])
    def test_finite_moments_keep_their_signal_without_warning(self, scale):
        a = np.array([0.5, 0.25, 0.125])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = covariance_from_moments(scale * np.eye(3), scale * a, scale, 10)
            np.testing.assert_allclose(regression_vector(cov), a, rtol=1e-12)

    @pytest.mark.parametrize("moment", ["sigma_xx", "sigma_xy", "sigma_yy"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_moment_is_numeric_failure(self, moment, value):
        moments = {"sigma_xx": np.eye(3), "sigma_xy": np.ones(3), "sigma_yy": 4.0}
        if moment == "sigma_yy":
            moments[moment] = value
        else:
            moments[moment].flat[1] = value
        with pytest.raises(NumericError, match="^second moments overflow: the data are too large"):
            covariance_from_moments(**moments, n=10)

    def test_overflowing_target_is_numeric_failure_without_warning(self, rng):
        x = rng.standard_normal((200, 3))
        y = 1e160 * (x @ np.array([1.0, 2.0, 3.0]) + rng.standard_normal(200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^second moments overflow"):
                empirical_covariance(x, y)


class TestCovarianceModel:
    def test_eigen_reconstruction(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 8))
            m = rng.standard_normal((d, d + 2))
            s = m @ m.T
            cov = CovarianceModel.from_matrices(s, np.zeros(d))
            rec = cov.eigenvectors @ np.diag(cov.eigenvalues) @ cov.eigenvectors.T
            assert np.linalg.norm(rec - 0.5 * (s + s.T)) <= 1e-10 * np.linalg.norm(s)

    def test_eigenvalues_sorted_descending(self, rng):
        cov = cov_from_spectrum([3.0, 1.0, 7.0, 0.5])
        assert np.all(np.diff(cov.eigenvalues) <= 0)
        assert cov.eigenvalues[0] == pytest.approx(7.0)

    def test_symmetrizes_input(self):
        s = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
        cov = CovarianceModel.from_matrices(s, np.zeros(2))
        # the spectrum is that of (s + s')/2: off its diagonal 1 + 5e-14, not 1 or 1 + 1e-13
        np.testing.assert_allclose(sigma_xx(cov), 0.5 * (s + s.T), rtol=1e-14, atol=0.0)

    def test_rejects_rank_deficient(self):
        with pytest.raises(NumericError, match="^smallest eigenvalue 1.000e-12 is below 1e-10 x "
                                               r"largest \(1.000e\+00\)$"):
            CovarianceModel.from_matrices(np.diag([1.0, 1e-12]), np.zeros(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CovarianceModel.from_matrices(np.ones((2, 3)), np.zeros(2))

    @pytest.mark.parametrize("length", [1, 3])
    def test_rejects_sigma_xy_of_wrong_length(self, length):
        with pytest.raises(ValueError, match="sigma_xy length"):
            CovarianceModel.from_matrices(np.eye(2), np.zeros(length))


class TestRegressionVector:
    def test_identity_covariance(self):
        cov = CovarianceModel.from_matrices(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(regression_vector(cov), [3.0, 4.0])

    def test_diagonal_inverse(self):
        cov = cov_from_spectrum([1.0, 4.0], sigma_xy=np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            np.sort(regression_vector(cov)), [0.25, 1.0], atol=1e-12
        )

    def test_zero_signal(self):
        cov = CovarianceModel.from_matrices(np.eye(3), np.zeros(3))
        with pytest.raises(ZeroSignalError):
            regression_vector(cov)

    def test_agrees_with_least_squares(self, rng):
        n, d = 200, 8
        x = rng.standard_normal((n, d))
        y = x @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
        cov = empirical_covariance(x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        brute = np.linalg.lstsq(xc, yc, rcond=None)[0]
        a = regression_vector(cov)
        assert np.linalg.norm(a - brute) <= 1e-8 * np.linalg.norm(brute)


class TestUnitDirection:
    def test_normalizes(self):
        u = unit_direction(np.array([3.0, 4.0]))
        np.testing.assert_allclose(u, [0.6, 0.8])

    def test_zero_vector(self):
        with pytest.raises(ZeroSignalError):
            unit_direction(np.zeros(2))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_squares_that_over_or_underflow(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = unit_direction(np.array([3.0, 4.0]) * scale)
        np.testing.assert_allclose(u, [0.6, 0.8], rtol=1e-15)

    def test_basis_coords_under_axis_swap(self):
        # diag(1,2,3) sorts to eigenvectors (e3, e2, e1) up to sign
        cov = cov_from_spectrum([1.0, 2.0, 3.0], sigma_xy=[5.0, 0.0, 0.0])
        np.testing.assert_allclose(np.abs(direction_coords(cov)), [0.0, 0.0, 1.0], atol=1e-12)

    def test_coords_follow_the_given_covariance(self):
        # one regression direction, two covariances with different eigenbases
        a = np.array([1.0, 2.0, 2.0])
        s_a = np.diag([3.0, 2.0, 1.0])
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        s_b = q @ np.diag([5.0, 1.0, 0.5]) @ q.T
        coords = []
        for s in (s_a, s_b):
            cov = CovarianceModel.from_matrices(s, s @ a)
            u = direction_coords(cov)
            v = unit_direction(regression_vector(cov))
            np.testing.assert_array_equal(u, cov.eigenvectors.T @ v)
            np.testing.assert_allclose(v, a / 3.0, rtol=1e-12)
            coords.append(u)
        assert np.abs(coords[0] - coords[1]).max() > 0.1

    def test_rejects_non_unit(self):
        # the private check behind every function that takes a direction; a
        # 2-D direction is a stack, so a column vector is not a direction of d = 2
        np.testing.assert_array_equal(_unit([0.6, 0.8], (2,)), [0.6, 0.8])
        with pytest.raises(ValueError, match=r"^direction of shape \(2, 1\) does not match"):
            _unit([[0.6], [0.8]], (2,))
        for bad in ([1.0, 1.0], [0.6, 0.8 + 1e-9], [np.nan, 0.0]):
            with pytest.raises(ValueError):
                _unit(np.array(bad), (2,))


class TestEquivariance:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_rotation_equivariance(self, seed):
        g = np.random.default_rng(seed)
        n, d = 120, 4
        x = g.standard_normal((n, d))
        y = x @ g.standard_normal(d)
        u = random_orthogonal(d, g)
        cov = empirical_covariance(x, y)
        cov_rot = empirical_covariance(x @ u.T, y)
        scale = np.linalg.norm(sigma_xx(cov))
        assert np.linalg.norm(sigma_xx(cov_rot) - u @ sigma_xx(cov) @ u.T) <= 1e-10 * scale
        a = regression_vector(cov)
        a_rot = regression_vector(cov_rot)
        assert np.linalg.norm(a_rot - u @ a) <= 1e-8 * np.linalg.norm(a)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        c=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    )
    def test_scale_covariance(self, seed, c):
        g = np.random.default_rng(seed)
        n, d = 120, 4
        x = g.standard_normal((n, d))
        y = x @ g.standard_normal(d)
        cov = empirical_covariance(x, y)
        cov_s = empirical_covariance(c * x, y)
        # each rebuilt from its spectrum, to rounding of the largest eigenvalue
        np.testing.assert_allclose(sigma_xx(cov_s), c**2 * sigma_xx(cov), rtol=1e-10,
                                   atol=1e-13 * c**2 * cov.eigenvalues[0])
        np.testing.assert_allclose(cov_s.sigma_xy, c * cov.sigma_xy, rtol=1e-10)
        np.testing.assert_allclose(
            regression_vector(cov_s), regression_vector(cov) / c, rtol=1e-8
        )
