"""Synthetic generators with known ground truth."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    DataError,
    GroundTruth,
    NumericError,
    empirical_covariance,
    generate_samples,
    genmodel,
    overfit_dataset,
    sample_aprime_def1,
    sample_aprime_def2,
    sample_covariance,
    sample_ground_truth,
    spectral,
    true_beta,
)
from specbeta.genmodel import _confounding_vector, sample_causal_truth

from conftest import cov_from_spectrum, sigma_xx


class TestGroundTruth:
    def test_dimension_properties(self, rng):
        t = GroundTruth(
            m=rng.standard_normal((3, 5)),
            a=np.zeros(3),
            c=np.zeros(5),
        )
        assert t.d == 3 and t.ell == 5

    def test_rejects_wide_mixing(self, rng):
        with pytest.raises(DataError, match=r"^need ell >= d, got d=5, ell=3$"):
            GroundTruth(
                m=rng.standard_normal((5, 3)),
                a=np.zeros(5),
                c=np.zeros(3),
            )

    @pytest.mark.parametrize("a_len, c_len", [(2, 5), (3, 4), (4, 6)])
    def test_rejects_mismatched_coefficient_lengths(self, rng, a_len, c_len):
        with pytest.raises(DataError, match="^a/c lengths do not match mixing matrix shape$"):
            GroundTruth(
                m=rng.standard_normal((3, 5)),
                a=np.zeros(a_len),
                c=np.zeros(c_len),
            )

    def test_rejects_rank_deficient_mixing(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        truth = GroundTruth(m=m, a=np.ones(2), c=np.ones(2))
        with pytest.raises(NumericError, match="^mixing matrix is not of full row rank$"):
            true_beta(truth)


class TestSampleGroundTruth:
    def test_deterministic(self):
        t1 = sample_ground_truth(10, 10, np.random.default_rng(7))
        t2 = sample_ground_truth(10, 10, np.random.default_rng(7))
        np.testing.assert_array_equal(t1.m, t2.m)
        np.testing.assert_array_equal(t1.a, t2.a)
        np.testing.assert_array_equal(t1.c, t2.c)

    def test_scale_mean_is_half(self):
        # replays the draws (M, sigma_a, sigma_c, a, c): a and c are the scales times normals
        vals = []
        for s in range(1000):
            t = sample_ground_truth(10, 10, np.random.default_rng(s))
            g = np.random.default_rng(s)
            g.standard_normal((10, 10))
            sigma_a, sigma_c = g.uniform(0.0, 1.0), g.uniform(0.0, 1.0)
            assert t.a.tobytes() == (sigma_a * g.standard_normal(10)).tobytes()
            assert t.c.tobytes() == (sigma_c * g.standard_normal(10)).tobytes()
            vals.append(sigma_a)
        assert abs(np.mean(vals) - 0.5) < 0.03

    def test_bad_dimensions(self):
        with pytest.raises(DataError, match=r"^need ell >= d >= 1, got d=5, ell=3$"):
            sample_ground_truth(5, 3, np.random.default_rng(0))


class TestGenerateSamples:
    def test_degenerate_truth_gives_zero_target(self):
        t = GroundTruth(m=np.eye(2), a=np.zeros(2), c=np.zeros(2))
        ds = generate_samples(t, 50, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(ds.y, np.zeros(50))
        # true_beta is undefined; the fitted model of the same draws records NaN
        with pytest.raises(NumericError, match="^a = 0 and c = 0: confounding strength undefined$"):
            true_beta(t)
        assert math.isnan(sample_covariance(t, 50, 0.0, np.random.default_rng(0))[1])

    def test_pure_causal_structural_equation(self):
        t = GroundTruth(m=np.eye(2), a=np.array([1.0, 0.0]), c=np.zeros(2))
        ds = generate_samples(t, 100, 0.0, np.random.default_rng(3))
        np.testing.assert_array_equal(ds.y, ds.x[:, 0])
        assert true_beta(t) == 0.0

    def test_covariance_concentrates_on_mixing(self):
        # d = ell = 10, n = 10000, fixed seed: empirical covariance lands
        # within Frobenius distance 2 of M M^T (relative error under 10%)
        t = sample_ground_truth(10, 10, np.random.default_rng(11))
        ds = generate_samples(t, 10000, 0.0, np.random.default_rng(11))
        xc = ds.x - ds.x.mean(axis=0)
        emp = xc.T @ xc / ds.n
        target = t.m @ t.m.T
        dist = np.linalg.norm(emp - target)
        assert dist < 2.0
        assert dist < 0.1 * np.linalg.norm(target)

    def test_deterministic(self):
        t = sample_ground_truth(4, 6, np.random.default_rng(5))
        d1 = generate_samples(t, 30, 0.0, np.random.default_rng(9))
        d2 = generate_samples(t, 30, 0.0, np.random.default_rng(9))
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_rejects_tiny_n(self):
        t = sample_ground_truth(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_samples(t, 1, 0.0, np.random.default_rng(0))

    def test_rejects_negative_noise(self):
        t = sample_ground_truth(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_samples(t, 10, -0.5, np.random.default_rng(0))


class TestSampleCovariance:
    """The moments fit against empirical_covariance(generate_samples(...))."""

    @staticmethod
    def assert_agree(truth, n, noise_sd, seed):
        g = np.random.default_rng(seed)
        ref = empirical_covariance(generate_samples(truth, n, noise_sd, g))
        ref_next = g.standard_normal()
        try:
            ref_beta = true_beta(truth)
        except NumericError as err:  # a = c = 0, recorded as NaN
            assert str(err) == "a = 0 and c = 0: confounding strength undefined"
            ref_beta = math.nan
        g = np.random.default_rng(seed)
        cov, beta = sample_covariance(truth, n, noise_sd, g)
        for a, b in ((sigma_xx(cov), sigma_xx(ref)), (cov.sigma_xy, ref.sigma_xy),
                     (cov.eigenvalues, ref.eigenvalues)):
            # 1e-13 relative to the largest entry
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b), initial=0.0)
        assert np.all(cov.sigma_xy == 0.0) == np.all(ref.sigma_xy == 0.0)
        assert (cov.n, cov.d) == (ref.n, ref.d)
        assert beta == ref_beta or (math.isnan(beta) and math.isnan(ref_beta))
        # the generator is left where the samples path leaves it
        assert g.standard_normal() == ref_next

    @pytest.mark.parametrize(
        "d, ell, n, noise_sd",
        [
            (10, 12, 10000, 0.0),
            (100, 110, 2000, 0.0),
            (40, 50, 1000, 0.0),
            (5, 5, 300, 1.0),
            (3, 3, 20, 0.5),
        ],
    )
    def test_matches_samples_path(self, d, ell, n, noise_sd):
        for seed in range(5):
            truth = sample_ground_truth(d, ell, np.random.default_rng(seed))
            self.assert_agree(truth, n, noise_sd, seed)

    def test_causal_model(self):
        # the overfit study's model: square mixing, c = 0
        for seed in range(5):
            self.assert_agree(sample_causal_truth(6, np.random.default_rng(seed)), 40, 1.0, seed)

    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    @pytest.mark.parametrize("zero", ["a", "c", "both"])
    def test_zero_coefficients(self, rng, zero, noise_sd):
        t = sample_ground_truth(4, 6, rng)
        a = np.zeros(4) if zero in ("a", "both") else t.a
        c = np.zeros(6) if zero in ("c", "both") else t.c
        truth = GroundTruth(m=t.m, a=a, c=c)
        self.assert_agree(truth, 50, noise_sd, 3)
        _, beta = sample_covariance(truth, 50, noise_sd, np.random.default_rng(3))
        if zero == "both":
            assert math.isnan(beta)
        else:
            assert beta == {"a": 1.0, "c": 0.0}[zero]

    def test_noise_free_moments_are_exact_zeros(self):
        # and no noise is drawn: the generator is left where the source draw leaves it
        truth = sample_ground_truth(4, 6, np.random.default_rng(0))
        g, ref = np.random.default_rng(1), np.random.default_rng(1)
        _, ze, ee, n = genmodel._latent_moments(truth, 50, 0.0, g)
        genmodel._draw_sources(truth, 50, 0.0, ref)
        assert ze.tobytes() == np.zeros(6).tobytes()
        assert np.float64(ee).tobytes() == np.float64(0.0).tobytes() and n == 50
        assert g.bit_generator.state == ref.bit_generator.state

    def test_a_mixed_stack_gives_each_run_its_single_fit(self):
        noise = [0.0, 0.7, 0.0, 1.5, 0.3, 0.0]
        truths = [sample_ground_truth(4, 6, np.random.default_rng(i)) for i in range(len(noise))]
        moments = [genmodel._latent_moments(truth, 50, sd, np.random.default_rng(i))
                   for i, (truth, sd) in enumerate(zip(truths, noise))]
        cov, betas = genmodel._fitted_models(truths, moments)
        for i, (truth, sd) in enumerate(zip(truths, noise)):
            alone, beta = sample_covariance(truth, 50, sd, np.random.default_rng(i))
            row = spectral._row(cov, i)
            for field in ("sigma_xy", "eigenvalues", "eigenvectors", "tau_inv", "n"):
                got, want = (np.asarray(getattr(c, field)) for c in (row, alone))
                assert got.tobytes() == want.tobytes()
            assert betas[i].tobytes() == np.float64(beta).tobytes()

    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    def test_target_variance(self, monkeypatch, noise_sd):
        # sigma_yy is not stored in the model, but it sets the zero-signal scale
        original, seen = genmodel._from_moments, []

        def keep(*args):  # the moments of a stack of one run
            seen.append(args[2][0])
            return original(*args)

        monkeypatch.setattr(genmodel, "_from_moments", keep)
        for seed in range(5):
            truth = sample_ground_truth(4, 6, np.random.default_rng(seed))
            y = generate_samples(truth, 50, noise_sd, np.random.default_rng(seed)).y
            sample_covariance(truth, 50, noise_sd, np.random.default_rng(seed))
            assert seen[-1] == pytest.approx(np.var(y), rel=1e-13, abs=0)

    @pytest.mark.parametrize("thread", ["this", "another"])
    @pytest.mark.parametrize("noise_sd", [1e200, 1e308])
    def test_overflowing_noise_raises_without_warning(self, noise_sd, thread):
        # the noise variance overflows; numpy must not warn on the way, on
        # whichever thread draws (a study draws on two)
        t = sample_ground_truth(4, 6, np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ThreadPoolExecutor(max_workers=1) as other:
                with pytest.raises(NumericError, match="^noise moments overflow at noise_sd="):
                    if thread == "this":
                        sample_covariance(t, 50, noise_sd, np.random.default_rng(0))
                    else:
                        other.submit(sample_covariance, t, 50, noise_sd, np.random.default_rng(0)).result()

    @pytest.mark.parametrize(
        "n, noise_sd, error, message",
        [(4, 0.0, DataError, "^need n > d, got n=4, d=4$"),
         (3, 1.0, DataError, "^need n > d, got n=3, d=4$"),
         (1, 0.0, ValueError, "^need n >= 2, got n=1$"),
         (10, -0.5, ValueError, "^noise_sd must be finite"),
         (10, math.nan, ValueError, "^noise_sd must be finite"),
         (10, math.inf, ValueError, "^noise_sd must be finite")],
    )
    def test_same_errors(self, n, noise_sd, error, message):
        t = sample_ground_truth(4, 6, np.random.default_rng(0))
        with pytest.raises(error, match=message):
            empirical_covariance(generate_samples(t, n, noise_sd, np.random.default_rng(0)))
        with pytest.raises(error, match=message):
            sample_covariance(t, n, noise_sd, np.random.default_rng(0))


class TestTrueBeta:
    def test_purely_confounded(self, rng):
        t = GroundTruth(
            m=rng.standard_normal((3, 3)) + 3 * np.eye(3),
            a=np.zeros(3),
            c=np.array([1.0, 2.0, 3.0]),
        )
        assert true_beta(t) == 1.0

    def test_purely_causal(self, rng):
        t = GroundTruth(
            m=rng.standard_normal((3, 3)) + 3 * np.eye(3),
            a=np.array([1.0, 2.0, 3.0]),
            c=np.zeros(3),
        )
        assert true_beta(t) == 0.0

    def test_balanced_identity_mixing(self):
        t = GroundTruth(m=np.eye(2), a=np.array([1.0, 0.0]), c=np.array([0.0, 1.0]))
        assert true_beta(t) == pytest.approx(0.5)

    def test_degenerate(self):
        t = GroundTruth(m=np.eye(2), a=np.zeros(2), c=np.zeros(2))
        with pytest.raises(NumericError, match="^a = 0 and c = 0: confounding strength undefined$"):
            true_beta(t)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_in_unit_interval_and_monotone_in_c(self, seed):
        g = np.random.default_rng(seed)
        t = sample_ground_truth(4, 6, g)
        b = true_beta(t)
        assert 0.0 <= b <= 1.0
        doubled = GroundTruth(m=t.m, a=t.a, c=2.0 * t.c)
        b2 = true_beta(doubled)
        if 0.0 < b < 1.0:
            assert b2 > b
        else:
            assert b2 == b


class TestConfoundingVector:
    # condition numbers up to 10^9.5, inside _confounding_vector's 1e-10 rank bound
    @pytest.mark.parametrize("log_cond", [8.0, 9.5])
    def test_matches_svd_formula_when_ill_conditioned(self, rng, log_cond):
        d, ell = 6, 8
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        v, _ = np.linalg.qr(rng.standard_normal((ell, d)))
        s = np.logspace(0.0, -log_cond, d)
        m = u @ np.diag(s) @ v.T
        c = rng.standard_normal(ell)
        exact = u @ ((v.T @ c) / s)
        got = _confounding_vector(m, c)
        err = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        assert err <= 1e-13 * 10.0**log_cond

    @pytest.mark.parametrize("d, ell", [(10, 12), (100, 110), (3, 3)])
    def test_true_beta_matches_pinv_formula(self, d, ell):
        for seed in range(50):
            t = sample_ground_truth(d, ell, np.random.default_rng(seed))
            mtc = np.linalg.pinv(t.m).T @ t.c
            conf2 = mtc @ mtc
            expected = conf2 / (t.a @ t.a + conf2)
            assert true_beta(t) == pytest.approx(expected, rel=1e-12, abs=0)


class TestSamplers:
    def test_def1_no_confounding_is_isotropic(self):
        g = np.random.default_rng(0)
        draws = np.array([sample_aprime_def1(np.eye(3), 2.0, 0.0, g) for _ in range(5000)])
        np.testing.assert_allclose(draws.var(axis=0), 4.0, rtol=0.1)

    def test_def1_mixing_shrinks_coordinates(self):
        m = np.diag([1.0, 10.0])
        g = np.random.default_rng(1)
        draws = np.array([sample_aprime_def1(m, 0.0, 1.0, g) for _ in range(10000)])
        assert abs(draws[:, 1].var() - 0.01) < 0.001

    def test_def2_identity_covariance(self):
        cov = cov_from_spectrum([1.0, 1.0, 1.0])
        g = np.random.default_rng(2)
        draws = np.array([sample_aprime_def2(cov, 1.0, 1.0, g) for _ in range(10000)])
        np.testing.assert_allclose(draws.var(axis=0), 2.0, rtol=0.05)

    def test_def2_diagonal_spectrum(self):
        cov = cov_from_spectrum([1.0, 4.0])
        g = np.random.default_rng(3)
        draws = np.array([sample_aprime_def2(cov, 1.0, 1.0, g) for _ in range(10000)])
        # the eigenbasis sorts descending: coordinate for lambda = 4 has
        # variance 1 + 1/4, the one for lambda = 1 has variance 2
        coords = draws @ cov.eigenvectors
        assert abs(coords[:, 0].var() - 1.25) < 0.0625
        assert abs(coords[:, 1].var() - 2.0) < 0.1


class TestOverfitDataset:
    def test_precondition(self):
        with pytest.raises(ValueError):
            overfit_dataset(10, 11, np.random.default_rng(0))

    def test_target_uncorrelated_on_average(self):
        corrs = []
        for s in range(200):
            ds = overfit_dataset(3, 50, np.random.default_rng(s))
            for j in range(3):
                corrs.append(np.corrcoef(ds.x[:, j], ds.y)[0, 1])
        assert abs(np.mean(corrs)) < 0.02

    def test_no_structural_confounding(self):
        # X = M Z, and Y is a draw of its own after M and Z: it depends on nothing in X
        ds = overfit_dataset(4, 30, np.random.default_rng(7))
        g = np.random.default_rng(7)
        m, z = g.standard_normal((4, 4)), g.standard_normal((4, 30))
        np.testing.assert_array_equal(ds.x, (m @ z).T)
        np.testing.assert_array_equal(ds.y, g.standard_normal(30))

    @pytest.mark.parametrize("d, n, seed", [(1, 3, 0), (4, 30, 7), (10, 200, 11)])
    def test_is_generate_samples_of_a_signal_free_model(self, d, n, seed):
        # the mixing matrix is the first draw, then generate_samples continues the generator
        ds = overfit_dataset(d, n, np.random.default_rng(seed))
        g = np.random.default_rng(seed)
        truth = GroundTruth(m=g.standard_normal((d, d)), a=np.zeros(d), c=np.zeros(d))
        want = generate_samples(truth, n, 1.0, g)
        assert ds.x.tobytes() == want.x.tobytes()
        assert ds.y.tobytes() == want.y.tobytes()

    def test_deterministic(self):
        d1 = overfit_dataset(4, 30, np.random.default_rng(5))
        d2 = overfit_dataset(4, 30, np.random.default_rng(5))
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)


class TestSampleCausalTruth:
    def test_no_confounding(self):
        truth = sample_causal_truth(5, np.random.default_rng(0))
        np.testing.assert_array_equal(truth.c, np.zeros(5))

    def test_noiseless_target_is_linear(self):
        truth = sample_causal_truth(5, np.random.default_rng(1))
        ds = generate_samples(truth, 100, 0.0, np.random.default_rng(1))
        assert true_beta(truth) == 0.0
        np.testing.assert_allclose(ds.y, ds.x @ truth.a, rtol=1e-12)
