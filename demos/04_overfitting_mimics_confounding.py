"""Small-sample regression on independent data looks confounded.

Even when the target is generated without any confounding, regression with
few samples per dimension drives the coefficient vector into the same
low-eigenvalue subspaces that true confounding would.  The hypothesis test
therefore rejects on small samples and calibrates itself as n grows.
"""

from specbeta import ExperimentConfig, run


def main():
    cfg = ExperimentConfig(
        mode="overfit_study",
        d=10,
        runs=200,
        seed=0,
        null_count=500,
        sample_sizes=(20, 100, 1000, 10000),
    )
    rep = run(cfg)
    print("causal-only data, d = 10, 200 runs per sample size")
    print("n       frac p<=0.05   p-value histogram (10 bins)")
    for entry in rep["summary"]["per_sample_size"]:
        hist = " ".join(f"{h:3d}" for h in entry["histogram"])
        print(f"{entry['n']:<7d} {entry['fraction_below_alpha']:12.3f}   {hist}")
    print()
    print("small n: p-values pile up near zero although nothing is confounded;")
    print("large n: the distribution flattens toward uniform.")


if __name__ == "__main__":
    main()
