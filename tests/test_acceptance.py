"""Acceptance gate: one test per criterion, reported as one line each.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Criterion 6 checks that overfitting alone makes the test reject:
far above the level at n = 20, more often than at n = 10000, and in most runs
when the target is independent of the predictors.  Criterion 9 checks that
the log density concentrates per dimension, around the value of
``concentrated_loglik``.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import helmert

from specbeta import (
    CovarianceModel,
    RankDeficientError,
    DataMatrix,
    ExperimentConfig,
    GroundTruth,
    concentrated_loglik,
    direction_density,
    empirical_covariance,
    estimate_confounding,
    generate_samples,
    log_direction_density,
    overfit_dataset,
    read_numeric_csv,
    regression_vector,
    run,
    sample_aprime_def1,
    sample_aprime_def2,
    sample_ground_truth,
    unit_direction,
)
from specbeta import test_nonconfounding as run_nonconfounding_test
from specbeta.harness import run_rng

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def cov_from_spectrum(lam):
    lam = np.asarray(lam, dtype=np.float64)
    return CovarianceModel.from_matrices(np.diag(lam), np.zeros(lam.size))


def quadratic_form(v, cov):
    w = cov.eigenvectors.T @ v
    return float(np.sum(w * w / cov.eigenvalues))


def test_c01_log_density_vanishes_at_zero():
    """theta = 0 gives log density exactly 0 for 1000 random direction/covariance pairs."""
    g = np.random.default_rng(0)
    for _ in range(1000):
        d = int(g.integers(2, 12))
        cov = cov_from_spectrum(g.uniform(0.1, 10.0, size=d))
        u = unit_direction(g.standard_normal(d))
        assert abs(log_direction_density(0.0, u, cov)) < 1e-12


def test_c02_pushforward_density_normalization_and_shape():
    """Monte-Carlo integral of the sphere density is 1; the angular histogram matches."""
    g = np.random.default_rng(1)
    for d in (2, 3):
        for _ in range(10):
            while True:
                a = g.standard_normal((d, d))
                sv = np.linalg.svd(a, compute_uv=False)
                if sv[0] / sv[-1] < 10.0:
                    break
            pts = g.standard_normal((10**6, d))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            inv_a = np.linalg.inv(a)
            dens = 1.0 / (
                abs(np.linalg.det(a)) * np.linalg.norm(pts @ inv_a.T, axis=1) ** d
            )
            # tie the vectorized oracle to the public function
            api = direction_density(a, pts[0])
            assert api == pytest.approx(dens[0], rel=1e-12)
            assert 0.99 <= dens.mean() <= 1.01

    # angular histogram for the diagonal stretch diag(1, 2)
    a = np.diag([1.0, 2.0])
    n = 10**6
    raw = g.standard_normal((n, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    pushed = raw @ a.T
    pushed /= np.linalg.norm(pushed, axis=1, keepdims=True)
    angles = np.arctan2(pushed[:, 1], pushed[:, 0])
    bins = np.linspace(-np.pi, np.pi, 37)
    observed = np.histogram(angles, bins=bins)[0]
    inv_a = np.linalg.inv(a)
    det = abs(np.linalg.det(a))
    probs = np.empty(36)
    for k in range(36):
        phi = np.linspace(bins[k], bins[k + 1], 201)
        v = np.column_stack([np.cos(phi), np.sin(phi)])
        dens = 1.0 / (det * np.linalg.norm(v @ inv_a.T, axis=1) ** 2)
        probs[k] = np.trapezoid(dens, phi) / (2 * np.pi)
    expected = n * probs
    se = np.sqrt(n * probs * (1 - probs))
    assert np.all(np.abs(observed - expected) <= 3 * se)


def test_c03_sampler_equivalence():
    """Both confounding samplers induce the same law of the inverse-covariance quadratic form."""
    g = np.random.default_rng(2)
    m = g.standard_normal((10, 10))
    cov = CovarianceModel.from_matrices(m @ m.T, np.zeros(10))
    g1 = np.array(
        [
            quadratic_form(unit_direction(sample_aprime_def1(m, 1.0, 1.0, g)), cov)
            for _ in range(20000)
        ]
    )
    g2 = np.array(
        [
            quadratic_form(unit_direction(sample_aprime_def2(cov, 1.0, 1.0, g)), cov)
            for _ in range(20000)
        ]
    )
    assert stats.ks_2samp(g1, g2).pvalue > 0.01


def test_c04_estimate_tracks_true_strength():
    """100 simulated models: correlation > 0.6 and good medians near both ends."""
    cfg = ExperimentConfig(mode="simulate", d=10, latent=10, n=10000, runs=100, seed=0)
    rep = run(cfg)
    ok = [r for r in rep["records"] if "error" not in r]
    betas = np.array([r["true_beta"] for r in ok])
    bhats = np.array([r["beta_hat"] for r in ok])
    assert rep["summary"]["pearson_correlation"] > 0.6
    low = bhats[betas < 0.1]
    high = bhats[betas > 0.9]
    assert low.size > 0 and high.size > 0
    assert np.median(low) < 0.25
    assert np.median(high) > 0.75


def test_c05_rejection_fractions_per_bin():
    """1000 models: strong confounding mostly rejected, weak confounding near level."""
    cfg = ExperimentConfig(
        mode="rejection_study", d=10, latent=10, n=10000, runs=1000, seed=0,
        null_count=1000,
    )
    rep = run(cfg)
    for b in rep["summary"]["bins"]:
        if b["bin_low"] >= 0.6 and b["count"] > 0:
            assert b["rejection_at_0.05"] > 0.5, b
    first = rep["summary"]["bins"][0]
    assert 0.02 <= first["rejection_at_0.05"] <= 0.10, first


def test_c06_overfit_pvalues_small_n_and_uniform_large_n():
    """Overfitting alone makes the test reject; at n = 10000 p-values are uniform.

    Causal-only data: at n = 20 the rejection fraction is far above the level
    (one-sided binomial test) and above the fraction at n = 10000, whose
    p-values are uniform.  How often the overfitting term outweighs the
    causal signal at n = 20 depends on the signal-to-noise ratio of the
    generator, so no fixed rate is asserted there.  With a target independent
    of the predictors (pure overfitting) most runs are rejected.
    """
    cfg = ExperimentConfig(
        mode="overfit_study", d=10, runs=500, seed=0, null_count=1000,
        sample_sizes=(20, 10000),
    )
    rep = run(cfg)
    per_n = {e["n"]: e for e in rep["summary"]["per_sample_size"]}
    pv_large = np.array(
        [r["p_value"] for r in rep["records"] if r.get("n") == 10000 and "error" not in r]
    )
    assert stats.kstest(pv_large, "uniform").pvalue > 0.01
    pv_small = np.array(
        [r["p_value"] for r in rep["records"] if r.get("n") == 20 and "error" not in r]
    )
    rejected = int(np.sum(pv_small <= cfg.alpha))
    binom = stats.binomtest(rejected, pv_small.size, cfg.alpha, alternative="greater")
    assert binom.pvalue < 1e-6, (rejected, pv_small.size)
    assert per_n[20]["fraction_below_alpha"] > per_n[10000]["fraction_below_alpha"]

    independent = []
    for i in range(500):
        g = run_rng(0, 20, i)
        ds = overfit_dataset(10, 20, g)
        cov = empirical_covariance(ds)
        res = run_nonconfounding_test(cov, g.standard_normal((1000, cov.d)))
        independent.append(res.p_value)
    assert np.mean(np.asarray(independent) <= cfg.alpha) > 0.5


def test_c07_test_level_calibration():
    """1000 unconfounded datasets: rejection rate within 0.03 of the nominal level."""
    pvals = []
    seed = 0
    while len(pvals) < 1000:
        g = np.random.default_rng(seed)
        seed += 1
        t = sample_ground_truth(10, 10, g)
        t = GroundTruth(m=t.m, a=t.a, c=np.zeros(10))
        ds = generate_samples(t, 10000, 0.0, g)
        try:
            cov = empirical_covariance(ds)
            res = run_nonconfounding_test(cov, g.standard_normal((1000, cov.d)))
            pvals.append(res.p_value)
        except RankDeficientError:
            # a nearly singular random mixing matrix does not yield a
            # usable dataset; draw a replacement
            continue
    pvals = np.asarray(pvals)
    for alpha in (0.05, 0.10):
        assert abs(np.mean(pvals <= alpha) - alpha) <= 0.03


def test_c08_invariance_under_scaling_and_rotation():
    """beta_hat unchanged by global rescaling and orthogonal rotation of the predictors."""
    for seed in range(50):
        g = np.random.default_rng(seed)
        t = sample_ground_truth(5, 5, g)
        ds = generate_samples(t, 800, 0.0, g)
        base = estimate_confounding(empirical_covariance(ds)).beta_hat
        c = float(g.uniform(0.1, 10.0))
        q, r = np.linalg.qr(g.standard_normal((5, 5)))
        u = q * np.sign(np.diag(r))
        scaled = estimate_confounding(
            empirical_covariance(DataMatrix(x=c * ds.x, y=ds.y))
        ).beta_hat
        rotated = estimate_confounding(
            empirical_covariance(DataMatrix(x=ds.x @ u.T, y=ds.y))
        ).beta_hat
        assert abs(scaled - base) <= 1e-6
        assert abs(rotated - base) <= 1e-6


def test_c09_log_density_concentration():
    """Per-dimension SD of the log density shrinks with d; mean near the concentrated value.

    The un-normalized log density is a sum over d coordinates, so its SD
    grows like sqrt(d); the concentration bound speaks of deviations per
    dimension.  The mean at d = 1000 is compared with ``concentrated_loglik``,
    the value that mean approaches.
    """
    sds = []
    mean_ok = False
    for d in (10, 50, 200, 1000):
        g = np.random.default_rng(d)
        cov = cov_from_spectrum(g.uniform(0.5, 2.0, size=d))
        scale = np.sqrt(1.0 + 1.0 / cov.eigenvalues)
        vals = []
        for _ in range(500):
            b = g.standard_normal(d)
            u = unit_direction(scale * b)
            vals.append(log_direction_density(1.0, u, cov))
        vals = np.asarray(vals)
        sds.append(vals.std(ddof=1) / d)
        if d == 1000:
            target = concentrated_loglik(1.0, 1.0, cov)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            mean_ok = abs(vals.mean() - target) <= 3 * se
    assert all(s2 < s1 for s1, s2 in zip(sds, sds[1:])), sds
    assert mean_ok


def test_c10_overfitting_equals_pure_confounding():
    """Small-sample regression on independent data matches the pure-confounding law."""
    d, n = 5, 21
    v_helmert = helmert(n)
    g_reg = np.empty(5000)
    g_conf = np.empty(5000)
    for seed in range(5000):
        ds = overfit_dataset(d, n, np.random.default_rng(seed))
        cov = empirical_covariance(ds)
        ahat = regression_vector(cov)
        g_reg[seed] = quadratic_form(unit_direction(ahat), cov)
        m = (v_helmert @ ds.x).T / math.sqrt(n)
        aprime = sample_aprime_def1(m, 0.0, 1.0, np.random.default_rng((seed, 1)))
        g_conf[seed] = quadratic_form(unit_direction(aprime), cov)
    assert stats.ks_2samp(g_reg, g_conf).pvalue > 0.01


def test_c11_real_data_checks():
    """Optional checks against locally available observational datasets."""
    optical_conf = DATA_DIR / "optical_confounded.csv"
    optical_unconf = DATA_DIR / "optical_unconfounded.csv"
    wine = DATA_DIR / "wine_quality.csv"
    if not any(p.exists() for p in (optical_conf, optical_unconf, wine)):
        pytest.skip("no real-data files under data/")

    def beta_hat(path, target, normalize=False):
        config = ExperimentConfig(mode="estimate", input_path=str(path), target=target,
                                  normalize=normalize)
        return run(config)["summary"]["beta_hat"]

    def last(path):
        return len(read_numeric_csv(path)[1]) - 1

    if optical_conf.exists():
        assert 0.70 <= beta_hat(optical_conf, last(optical_conf)) <= 0.85
    if optical_unconf.exists():
        assert beta_hat(optical_unconf, last(optical_unconf)) <= 0.05
    if wine.exists():
        assert beta_hat(wine, "quality", normalize=True) <= 0.05
        matrix, names = read_numeric_csv(wine)
        x = matrix[:, [j for j, nm in enumerate(names) if nm not in ("quality", "alcohol")]]
        reduced = DataMatrix(x=x / x.std(axis=0), y=matrix[:, names.index("quality")])
        assert 0.5 <= estimate_confounding(empirical_covariance(reduced)).beta_hat <= 0.75
