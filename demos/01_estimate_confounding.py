"""Estimate the strength of hidden confounding on synthetic data.

A latent source vector Z drives both the predictors (X = M Z) and the
target (Y = a'X + c'Z).  Because the ground truth is known, the exact
confounding strength beta can be computed and compared with the estimate
recovered from the samples alone.
"""

import numpy as np

from specbeta import (
    empirical_covariance,
    estimate_confounding,
    generate_samples,
    sample_ground_truth,
    true_beta,
)


def main():
    rng = np.random.default_rng(20240817)
    print("true beta  estimated beta  theta_hat")
    for seed in range(8):
        g = np.random.default_rng(seed)  # one generator draws the model, then its samples
        truth = sample_ground_truth(d=10, ell=10, rng=g)
        data = generate_samples(truth, n=10000, noise_sd=0.0, rng=g)
        est = estimate_confounding(empirical_covariance(data))
        flag = "  (boundary)" if est.boundary else ""
        print(f"{true_beta(truth):9.3f}  {est.beta_hat:14.3f}  {est.theta_hat:9.4g}{flag}")

    # the estimate is most reliable near the extremes: a purely causal
    # model (c = 0) should land near 0, a purely confounded one near 1
    truth = sample_ground_truth(d=10, ell=10, rng=rng)
    from specbeta.genmodel import GroundTruth

    causal = GroundTruth(m=truth.m, a=truth.a, c=np.zeros(10))
    confounded = GroundTruth(m=truth.m, a=np.zeros(10), c=truth.c)
    for label, t in [("purely causal", causal), ("purely confounded", confounded)]:
        data = generate_samples(t, n=10000, noise_sd=0.0, rng=rng)
        est = estimate_confounding(empirical_covariance(data))
        print(f"{label:>18}: beta_hat = {est.beta_hat:.3f}")


if __name__ == "__main__":
    main()
