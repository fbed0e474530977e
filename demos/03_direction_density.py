"""The geometry behind the estimator: densities of directions on the sphere.

Pushing a uniformly distributed direction through an invertible matrix
concentrates probability mass toward the stretched axes.  The closed-form
density of that pushforward is the building block of the likelihood, and a
histogram of simulated directions reproduces it.
"""

import numpy as np

from specbeta import CovarianceModel, direction_density, log_direction_density


def main():
    # histogram check in the plane for A = diag(1, 2)
    a = np.diag([1.0, 2.0])
    g = np.random.default_rng(0)
    raw = g.standard_normal((200000, 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    pushed = raw @ a.T
    pushed /= np.linalg.norm(pushed, axis=1, keepdims=True)
    angles = np.arctan2(pushed[:, 1], pushed[:, 0])

    print("angle bin        observed  closed form")
    edges = np.linspace(0, np.pi / 2, 7)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (angles >= lo) & (angles < hi)
        # all four quadrants are symmetric; use the first
        observed = 4 * mask.mean() / ((hi - lo) / (2 * np.pi))
        mid = 0.5 * (lo + hi)
        v = np.array([np.cos(mid), np.sin(mid)])
        print(f"[{lo:4.2f}, {hi:4.2f})  {observed:9.3f}  {direction_density(a, v):11.3f}")

    # the confounding-model density is the special case A = sqrt(I + theta
    # sigma_xx^{-1}): mass on a small eigenvalue becomes more likely as
    # theta grows.  The likelihood reads a direction by its coordinates u in
    # the eigenbasis, which sorts the eigenvalues descending: (4, 1).
    cov = CovarianceModel.from_matrices(np.diag([1.0, 4.0]), np.zeros(2))
    low = np.array([0.0, 1.0])   # eigenvalue 1
    high = np.array([1.0, 0.0])  # eigenvalue 4
    print()
    print("theta   log density (low-eig dir)  log density (high-eig dir)")
    for theta in (0.0, 0.5, 1.0, 4.0):
        print(
            f"{theta:5.1f}   {log_direction_density(theta, low, cov):25.4f}"
            f"  {log_direction_density(theta, high, cov):26.4f}"
        )


if __name__ == "__main__":
    main()
