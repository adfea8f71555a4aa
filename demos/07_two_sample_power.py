"""Two-sample power and influence on the veteran trial.

The paper's two-sample results for H0: shape_A = shape_B, evaluated at the
Weibull fits of both arms for tuning 0 and 0.5:

1. The normal approximation to the power of the Wald-type test at the fitted
   arms, with each arm's censoring-free sandwich covariance.
2. The asymptotic power against contiguous alternatives that move arm A's
   shape by h / sqrt(n_A).
3. The second-order influence of the test statistic for a point
   contamination at t in arm A, at a null point with the arms' mean shape:
   unbounded for the likelihood test, bounded for the robust one.
"""

import numpy as np

from robustsurv import (
    FitConfig,
    LinearTwoSampleRestriction,
    WEIBULL,
    datasets,
    fit,
    if2_two_sample,
    two_sample_contiguous,
    two_sample_power_approx,
)

ALPHAS = (0.0, 0.5)
SHIFTS = (1.0, 2.0, 4.0)
POINTS = (10.0, 100.0, 1000.0, 5000.0)


def main():
    arms = datasets.load_veteran()
    shape_eq = LinearTwoSampleRestriction.component_equal(1, 2, name="shape")
    fits = {alpha: [fit(arms[arm], WEIBULL, FitConfig(alpha=alpha)) for arm in ("A", "B")] for alpha in ALPHAS}
    n_a, n_b = fits[0.0][0].n, fits[0.0][1].n
    omega = n_b / (n_a + n_b)  # the weight of arm A's covariance in the stacked one

    print("fitted arms (scale, shape):")
    for alpha, (fit_a, fit_b) in fits.items():
        print(f"  alpha={alpha:3.1f}  A=({fit_a.theta_hat[0]:6.1f}, {fit_a.theta_hat[1]:.3f})"
              f"  B=({fit_b.theta_hat[0]:6.1f}, {fit_b.theta_hat[1]:.3f})")

    print("\nH0: shape_A = shape_B, approximate power at the fitted arms (level 0.05):")
    for alpha, (fit_a, fit_b) in fits.items():
        power = two_sample_power_approx(fit_a.theta_hat, fit_b.theta_hat, shape_eq,
                                        fit_a.sigma_hat, fit_b.sigma_hat, n_a, n_b)
        print(f"  alpha={alpha:3.1f}  power={power:.3g}")
    print("  the robust fits put the two shapes close together: little power at them")

    print("\ncontiguous power, arm A's shape moved by h / sqrt(n_A):")
    print("  " + "".join(f"{f'h={h:g}':>10s}" for h in SHIFTS))
    for alpha, (fit_a, fit_b) in fits.items():
        stacked = np.zeros((4, 4))
        stacked[:2, :2], stacked[2:, 2:] = omega * fit_a.sigma_hat, (1.0 - omega) * fit_b.sigma_hat
        sigma_tilde = shape_eq.matrix.T @ stacked @ shape_eq.matrix
        powers = [two_sample_contiguous(np.array([0.0, h]), np.zeros(2), shape_eq, sigma_tilde, omega,
                                        fit_a.theta_hat, fit_b.theta_hat) for h in SHIFTS]
        print(f"  alpha={alpha:3.1f}" + "".join(f"{p:10.3f}" for p in powers))

    print("\nIF2 of the test statistic, contamination at t in arm A (model covariance):")
    print("  " + "".join(f"{f't={t:g}':>11s}" for t in POINTS))
    for alpha, (fit_a, fit_b) in fits.items():
        shape = 0.5 * (fit_a.theta_hat[1] + fit_b.theta_hat[1])
        null_a, null_b = (fit_a.theta_hat[0], shape), (fit_b.theta_hat[0], shape)
        values = [if2_two_sample(WEIBULL, null_a, null_b, alpha, shape_eq, t1=t, omega=omega) for t in POINTS]
        print(f"  alpha={alpha:3.1f}" + "".join(f"{v:11.3g}" for v in values))


if __name__ == "__main__":
    main()
