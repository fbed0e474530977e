"""Shuffle-target screening of a multivariate CSV.

Each column takes a turn as the target, with the remaining columns as
predictors.  Columns that are (nearly) linear functions of the others come
out with a low estimate; columns driven by unshared factors look
confounded.  The same analysis is available on the command line as
``specbeta shuffle-target --input file.csv``.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from specbeta import ExperimentConfig, run


def make_example_csv(path):
    g = np.random.default_rng(7)
    base = g.standard_normal((3000, 4))
    # col "mix" is an exact linear blend of the first four columns;
    # col "lone" has its own private driver
    mix = base @ np.array([1.0, -2.0, 0.5, 1.5])
    lone = g.standard_normal(3000)
    table = np.column_stack([base, mix, lone])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "x4", "mix", "lone"])
        writer.writerows(table.tolist())


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "example.csv"
        make_example_csv(path)
        cfg = ExperimentConfig(
            mode="shuffle_target", input_path=str(path), seed=0, null_count=500
        )
        rep = run(cfg)
        print("column  beta_hat  p-value")
        for rec in rep["records"]:
            if "beta_hat" in rec:
                print(f"{rec['name']:>6}  {rec['beta_hat']:8.3f}  {rec['p_value']:.4f}")
            else:
                print(f"{rec['name']:>6}  {'-':>8}  flagged: {rec}")


if __name__ == "__main__":
    main()
