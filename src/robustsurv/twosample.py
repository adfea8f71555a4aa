"""Wald-type comparison of two independent censored samples.

The two arms are fitted separately (always with the same divergence tuning
constant) and compared through a restriction m(theta1, theta2) = 0 with
per-arm Jacobians M1, M2.  The pooled matrix weights each arm's sandwich by
the opposite arm's sample fraction, which is exactly the delta-method
variance of m under independent arms.  For rank-one restrictions the signed
square root gives the one-sided test with a standard normal null.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from .estimator import FitResult
from .hypothesis import _central_differences, chi2_quantile, chi2_sf

__all__ = [
    "TwoSampleRestriction",
    "LinearTwoSampleRestriction",
    "TwoSampleReport",
    "pooled_sigma",
    "two_sample_wald",
    "one_sided_wald",
    "two_sample_power_approx",
    "two_sample_contiguous",
]


class TwoSampleRestriction:
    """Restriction m(theta1, theta2) = 0 with p x r Jacobians per arm."""

    r: int
    description: str

    def m(self, theta1, theta2) -> np.ndarray:
        raise NotImplementedError

    def jacobian1(self, theta1, theta2) -> np.ndarray:
        raise NotImplementedError

    def jacobian2(self, theta1, theta2) -> np.ndarray:
        raise NotImplementedError

    def validate_at(self, theta1, theta2) -> None:
        """Check the shapes of both Jacobians, each against finite differences
        of m (1e-6), and the rank of the stacked [M1; M2] (singular values
        above 1e-10)."""
        theta1 = np.asarray(theta1, dtype=float)
        theta2 = np.asarray(theta2, dtype=float)
        jac1 = np.asarray(self.jacobian1(theta1, theta2), dtype=float)
        jac2 = np.asarray(self.jacobian2(theta1, theta2), dtype=float)
        for which, jac, point in (("1", jac1, theta1), ("2", jac2, theta2)):
            if jac.shape != (point.size, self.r):
                raise ValueError(f"jacobian{which} must be {point.size} x {self.r}")
        if self._checked_rank(theta1, theta2, jac1, jac2) < self.r:
            raise ValueError("stacked two-sample jacobian is rank-deficient")

    def _checked_rank(self, theta1, theta2, jac1, jac2) -> int:
        """Rank of [M1; M2] after checking both against finite differences."""
        fd1 = _central_differences(lambda t: self.m(t, theta2), theta1, 1e-6)
        fd2 = _central_differences(lambda t: self.m(theta1, t), theta2, 1e-6)
        for which, jac, fd in (("1", jac1, fd1), ("2", jac2, fd2)):
            if not np.allclose(jac, fd, atol=1e-6, rtol=1e-6):
                raise ValueError(
                    f"jacobian{which} disagrees with finite differences"
                )
        return int(np.linalg.matrix_rank(np.vstack([jac1, jac2]), tol=1e-10))


@dataclass(frozen=True, eq=False)
class LinearTwoSampleRestriction(TwoSampleRestriction):
    """m = A1^T theta1 + A2^T theta2 - target.

    The Jacobians are A1 and A2 themselves, exactly, so validate_at skips the
    finite-difference check; the matrices and target are read-only copies of
    the caller's arrays, which lets the rank of [A1; A2] be taken once.
    """

    matrix1: np.ndarray
    matrix2: np.ndarray
    target: np.ndarray
    description: str = ""

    def __post_init__(self):
        arrays = {
            "matrix1": np.array(self.matrix1, dtype=float),
            "matrix2": np.array(self.matrix2, dtype=float),
            "target": np.atleast_1d(np.array(self.target, dtype=float)),
        }
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def r(self) -> int:
        return int(self.matrix1.shape[1])

    def m(self, theta1, theta2):
        return (
            self.matrix1.T @ np.asarray(theta1, dtype=float)
            + self.matrix2.T @ np.asarray(theta2, dtype=float)
            - self.target
        )

    def jacobian1(self, theta1, theta2):
        return self.matrix1

    def jacobian2(self, theta1, theta2):
        return self.matrix2

    def _checked_rank(self, theta1, theta2, jac1, jac2):
        return self._rank

    @cached_property
    def _rank(self) -> int:
        return int(np.linalg.matrix_rank(np.vstack([self.matrix1, self.matrix2]), tol=1e-10))

    @classmethod
    def homogeneity(cls, dim: int) -> "LinearTwoSampleRestriction":
        """H0: theta1 = theta2 (r = p)."""
        eye = np.eye(dim)
        return cls(eye, -eye, np.zeros(dim), description="theta1 = theta2")

    @classmethod
    def component_equal(cls, index: int, dim: int, name: str | None = None) -> "LinearTwoSampleRestriction":
        """H0: theta1[index] = theta2[index]; one-sided direction reads
        m = theta1[index] - theta2[index] > 0."""
        col = np.zeros((dim, 1))
        col[index, 0] = 1.0
        label = name or f"theta[{index}]"
        return cls(col, -col, np.zeros(1), description=f"{label}1 = {label}2")

    def negated(self) -> "LinearTwoSampleRestriction":
        """Flip the sign of m (turns H1: m > 0 into H1: m < 0)."""
        return LinearTwoSampleRestriction(
            -self.matrix1, -self.matrix2, -self.target,
            description=self.description,
        )


@dataclass(frozen=True)
class TwoSampleReport:
    statistic: float
    df: int
    p_value: float
    one_sided: bool
    alpha_dpd: float
    description: str
    n1: int
    n2: int
    theta1: np.ndarray
    theta2: np.ndarray
    sigma_tilde: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def reject(self, level: float) -> bool:
        return self.p_value < level

    def to_dict(self) -> dict:
        out = {
            "hypothesis": self.description,
            "alpha_dpd": self.alpha_dpd,
            "statistic": self.statistic,
            "df": "" if self.one_sided else self.df,
            "one_sided": self.one_sided,
            "p_value": self.p_value,
            "n1": self.n1,
            "n2": self.n2,
        }
        out.update(self.diagnostics)
        return out

    def summary(self) -> str:
        kind = "one-sided" if self.one_sided else f"df {self.df}"
        return (
            f"H0: {self.description}   [alpha_dpd={self.alpha_dpd:g}]\n"
            f"two-sample Wald statistic: {self.statistic:.6g}  ({kind})   "
            f"p-value: {self.p_value:.4g}\n"
            f"arm sizes: {self.n1}, {self.n2}"
        )


def _check_fits(fit1: FitResult, fit2: FitResult) -> None:
    if not (fit1.converged and fit2.converged):
        raise ValueError("two-sample tests require both fits to have converged")
    if fit1.alpha != fit2.alpha:
        raise ValueError(
            "mixed tuning constants: both arms must be fitted at the same alpha_dpd"
        )


def pooled_sigma(
    fit1: FitResult,
    fit2: FitResult,
    restriction: TwoSampleRestriction,
    n1: int | None = None,
    n2: int | None = None,
) -> np.ndarray:
    """(n2/N) M1^T Sigma1 M1 + (n1/N) M2^T Sigma2 M2 at the fitted point."""
    n1 = fit1.n if n1 is None else n1
    n2 = fit2.n if n2 is None else n2
    total = n1 + n2
    jac1 = restriction.jacobian1(fit1.theta_hat, fit2.theta_hat)
    jac2 = restriction.jacobian2(fit1.theta_hat, fit2.theta_hat)
    return (
        (total - n1) / total * jac1.T @ fit1.sigma_hat @ jac1
        + (total - n2) / total * jac2.T @ fit2.sigma_hat @ jac2
    )


def two_sample_wald(
    fit1: FitResult,
    fit2: FitResult,
    restriction: TwoSampleRestriction,
    *,
    n1: int | None = None,
    n2: int | None = None,
) -> TwoSampleReport:
    """(n1 n2 / (n1 + n2)) m^T SigmaTilde^{-1} m with chi-square_r p-value."""
    _check_fits(fit1, fit2)
    n1 = fit1.n if n1 is None else n1
    n2 = fit2.n if n2 is None else n2
    restriction.validate_at(fit1.theta_hat, fit2.theta_hat)
    m = restriction.m(fit1.theta_hat, fit2.theta_hat)
    sigma_tilde = pooled_sigma(fit1, fit2, restriction, n1, n2)
    cond = float(np.linalg.cond(sigma_tilde))
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"pooled covariance is numerically singular (cond={cond:.3g})"
        )
    statistic = float(n1 * n2 / (n1 + n2) * (m @ np.linalg.solve(sigma_tilde, m)))
    return TwoSampleReport(
        statistic=statistic,
        df=restriction.r,
        p_value=chi2_sf(restriction.r, statistic),
        one_sided=False,
        alpha_dpd=fit1.alpha,
        description=restriction.description or f"m(theta1, theta2) = 0 (r={restriction.r})",
        n1=n1,
        n2=n2,
        theta1=fit1.theta_hat,
        theta2=fit2.theta_hat,
        sigma_tilde=sigma_tilde,
        diagnostics={"sigma_tilde_cond": cond},
    )


def one_sided_wald(
    fit1: FitResult,
    fit2: FitResult,
    restriction: TwoSampleRestriction,
    *,
    n1: int | None = None,
    n2: int | None = None,
) -> TwoSampleReport:
    """Signed square root of the two-sided statistic for r = 1, testing
    H1: m(theta1, theta2) > 0; p-value from the standard normal upper tail."""
    if restriction.r != 1:
        raise ValueError("one-sided tests need a rank-one restriction")
    base = two_sample_wald(fit1, fit2, restriction, n1=n1, n2=n2)
    m = float(restriction.m(fit1.theta_hat, fit2.theta_hat)[0])
    statistic = float(np.sign(m) * np.sqrt(base.statistic))
    return TwoSampleReport(
        statistic=statistic,
        df=1,
        p_value=float(1.0 - special.ndtr(statistic)),
        one_sided=True,
        alpha_dpd=base.alpha_dpd,
        description=base.description + " (one-sided)",
        n1=base.n1,
        n2=base.n2,
        theta1=base.theta1,
        theta2=base.theta2,
        sigma_tilde=base.sigma_tilde,
        diagnostics=base.diagnostics,
    )


def two_sample_power_approx(
    theta1,
    theta2,
    restriction: TwoSampleRestriction,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    n1: int,
    n2: int,
    level: float = 0.05,
) -> float:
    """Normal approximation to the two-sample power at a fixed alternative:

        1 - Phi( sqrt((n1+n2)/(n1 n2)) / (2 sqrt(l)) * (chi2_{r,level} - n1 n2/(n1+n2) l) )

    with l = m^T SigmaTilde^{-1} m evaluated at (theta1, theta2)."""
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    m = restriction.m(theta1, theta2)
    if float(m @ m) <= 1e-28:
        raise ValueError("(theta1, theta2) satisfies the null; power approximation undefined")
    total = n1 + n2
    jac1 = restriction.jacobian1(theta1, theta2)
    jac2 = restriction.jacobian2(theta1, theta2)
    sigma_tilde = (
        (total - n1) / total * jac1.T @ np.asarray(sigma1, dtype=float) @ jac1
        + (total - n2) / total * jac2.T @ np.asarray(sigma2, dtype=float) @ jac2
    )
    ell = float(m @ np.linalg.solve(sigma_tilde, m))
    scale = n1 * n2 / total
    z = np.sqrt(1.0 / scale) / (2.0 * np.sqrt(ell)) * (
        chi2_quantile(restriction.r, level) - scale * ell
    )
    return float(1.0 - special.ndtr(z))


def two_sample_contiguous(
    delta1,
    delta2,
    restriction: TwoSampleRestriction,
    sigma_tilde: np.ndarray,
    omega: float,
    theta10,
    theta20,
    level: float = 0.05,
) -> float:
    """Asymptotic power against theta_i0 + delta_i / sqrt(n_i): noncentral
    chi-square_r tail with noncentrality W^T SigmaTilde^{-1} W where
    W = sqrt(omega) M1^T delta1 + sqrt(1-omega) M2^T delta2."""
    from .influence import noncentral_chi2_sf

    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    theta10 = np.asarray(theta10, dtype=float)
    theta20 = np.asarray(theta20, dtype=float)
    jac1 = restriction.jacobian1(theta10, theta20)
    jac2 = restriction.jacobian2(theta10, theta20)
    w = np.sqrt(omega) * jac1.T @ np.asarray(delta1, dtype=float) + np.sqrt(
        1.0 - omega
    ) * jac2.T @ np.asarray(delta2, dtype=float)
    ncp = float(w @ np.linalg.solve(np.asarray(sigma_tilde, dtype=float), w))
    return noncentral_chi2_sf(chi2_quantile(restriction.r, level), restriction.r, ncp)
