"""Monte-Carlo test of the hypothesis that there is no confounding.

The statistic measures how strongly the regression direction leans into
the low-eigenvalue eigenspaces of the predictor covariance.  On genuinely
causal data its p-values are roughly uniform; on confounded data they
collapse toward zero.
"""

import numpy as np

from specbeta import (
    empirical_covariance,
    generate_samples,
    sample_ground_truth,
    test_nonconfounding,
    true_beta,
)
from specbeta.genmodel import GroundTruth


def main():
    print("seed  true beta  T observed  p-value")
    for seed in range(6):
        g = np.random.default_rng(seed)
        truth = sample_ground_truth(d=10, ell=10, rng=g)
        cov = empirical_covariance(*generate_samples(truth, n=10000, noise_sd=0.0, rng=g))
        # the null's 1000 uniform directions, from standard normals drawn by the caller
        res = test_nonconfounding(cov, g.standard_normal((1000, cov.d)))
        print(f"{seed:4d}  {true_beta(truth):9.3f}  {res.t_observed:10.4f}  {res.p_value:.4f}")

    print()
    print("purely causal data (no confounding): p-values should look uniform")
    pvals = []
    for seed in range(40):
        g = np.random.default_rng(1000 + seed)
        t = sample_ground_truth(10, 10, g)
        t = GroundTruth(m=t.m, a=t.a, c=np.zeros(10))
        cov = empirical_covariance(*generate_samples(t, n=10000, noise_sd=0.0, rng=g))
        res = test_nonconfounding(cov, g.standard_normal((1000, cov.d)))
        pvals.append(res.p_value)
    print(f"fraction below 0.05: {np.mean(np.asarray(pvals) <= 0.05):.3f} (nominal 0.05)")


if __name__ == "__main__":
    main()
