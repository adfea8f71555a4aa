"""Consistency of the censoring-free sandwich variance.

The headline guarantee: the sandwich variance estimator is consistent without
knowing the censoring distribution.  The check is the ratio of the average
variance estimate to the empirical mean-squared error over replications; a
ratio near one means the estimator tells the truth about its own noise.  This
scaled-down run sweeps sample sizes at three tuning constants.
"""

import os

from robustsurv import ExperimentSpec, FamilySpec, SyntheticDesign, run_experiment

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    os.makedirs(OUT, exist_ok=True)
    for n in (50, 100, 200):
        spec = ExperimentSpec(
            design=SyntheticDesign(
                lifetime=FamilySpec("weibull", (2.0, 5.0)),
                censoring_mean=17.4,
                seed=7,
            ),
            n=n,
            replications=400,
            alpha_grid=(0.0, 0.5, 1.0),
            kind="variance_ratio",
        )
        report = run_experiment(spec)
        print(f"\nn = {n}")
        for row in report.rows:
            print(f"  alpha={row['alpha']:3.1f} {row['parameter']:>5s}: "
                  f"ratio={row['ratio']:.3f} "
                  f"(mse {row['empirical_mse']:.3e}, "
                  f"mean var est {row['mean_variance_estimate']:.3e})")
        path = os.path.join(OUT, f"variance_ratio_n{n}.csv")
        report.write_csv(path)
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
