"""Wald-type comparison of two independent censored samples.

The two arms are fitted separately (always with the same divergence tuning
constant).  Their estimators are independent, so the paper's statistic

    (n1 n2 / N) m^T [(n2/N) M1^T Sigma1 M1 + (n1/N) M2^T Sigma2 M2]^{-1} m

is the one-sample Wald form on the stacked parameter theta = (theta1,
theta2), with M = [M1; M2], effective size n1 n2 / N and block-diagonal
covariance diag((n2/N) Sigma1, (n1/N) Sigma2): the delta-method variance of
m.  A two-sample null is thus a one-sample Restriction on theta (linear
below, or a FunctionRestriction for a nonlinear null).  For rank-one
restrictions the signed square root gives the one-sided test with a
standard normal null."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimator import FitResult
from .hypothesis import (
    LinearRestriction, Restriction, TestReport, _wald_form, chi2_quantile, chi2_sf,
    noncentral_chi2_sf, power_approx,
)

__all__ = [
    "LinearTwoSampleRestriction",
    "TwoSampleReport",
    "two_sample_wald",
    "one_sided_wald",
    "two_sample_power_approx",
    "two_sample_contiguous",
]


class LinearTwoSampleRestriction(LinearRestriction):
    """m(theta) = A1^T theta1 + A2^T theta2 - target on the stacked theta: the
    linear restriction with matrix [A1; A2], a read-only copy of the caller's
    arrays whose blocks matrix1 and matrix2 are read-only views."""

    def __init__(self, matrix1, matrix2, target, description: str = ""):
        super().__init__(np.vstack((matrix1, matrix2)), target, description)
        object.__setattr__(self, "_dim1", np.shape(matrix1)[0])

    @property
    def matrix1(self) -> np.ndarray:
        return self.matrix[: self._dim1]

    @property
    def matrix2(self) -> np.ndarray:
        return self.matrix[self._dim1 :]

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
        return LinearTwoSampleRestriction(-self.matrix1, -self.matrix2, -self.target, self.description)


@dataclass(frozen=True, kw_only=True)
class TwoSampleReport(TestReport):
    """A TestReport with the arms' sizes and estimates and the r x r SigmaTilde;
    a one-sided test's p_value is the standard normal upper tail."""

    one_sided: bool
    n1: int
    n2: int
    theta1: np.ndarray
    theta2: np.ndarray
    sigma_tilde: np.ndarray

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


def _stacked_sigma(weight1: float, sigma1, sigma2) -> list:
    """diag(weight1 Sigma1, (1 - weight1) Sigma2) by rows, on Python floats;
    the tests weight each arm by the other's sample fraction, weight1 = n2/N."""
    rows1 = [[weight1 * v for v in row] for row in np.asarray(sigma1, dtype=float).tolist()]
    rows2 = [[(1.0 - weight1) * v for v in row] for row in np.asarray(sigma2, dtype=float).tolist()]
    return [row + [0.0] * len(rows2) for row in rows1] + [[0.0] * len(rows1) + row for row in rows2]


def _wald(fit1: FitResult, fit2: FitResult, restriction: Restriction) -> tuple[TwoSampleReport, list]:
    """The two-sided report and m at the stacked estimate, as floats."""
    _check_fits(fit1, fit2)
    n1, n2 = fit1.n, fit2.n
    m, jac = (a.tolist() for a in restriction.validate_at(np.concatenate((fit1.theta_hat, fit2.theta_hat))))
    sigma = _stacked_sigma(n2 / (n1 + n2), fit1.sigma_hat, fit2.sigma_hat)
    form, sigma_tilde, cond = _wald_form(m, jac, sigma)
    statistic = n1 * n2 / (n1 + n2) * form
    report = TwoSampleReport(
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
        sigma_tilde=np.array(sigma_tilde),
        diagnostics={"sigma_tilde_cond": cond},
    )
    return report, m


def two_sample_wald(
    fit1: FitResult, fit2: FitResult, restriction: Restriction
) -> TwoSampleReport:
    """(n1 n2 / (n1 + n2)) m^T SigmaTilde^{-1} m with chi-square_r p-value,
    SigmaTilde = M^T diag((n2/N) Sigma1, (n1/N) Sigma2) M at the stacked
    estimate; cond(SigmaTilde) above 1e12 raises LinAlgError."""
    return _wald(fit1, fit2, restriction)[0]


def one_sided_wald(
    fit1: FitResult, fit2: FitResult, restriction: Restriction
) -> TwoSampleReport:
    """Signed square root of the two-sided statistic for r = 1, testing
    H1: m(theta1, theta2) > 0; p-value from the standard normal upper tail."""
    if restriction.r != 1:
        raise ValueError("one-sided tests need a rank-one restriction")
    base, m = _wald(fit1, fit2, restriction)
    statistic = float(np.sign(m[0]) * np.sqrt(base.statistic))
    return replace(
        base,
        statistic=statistic,
        p_value=0.5 * math.erfc(statistic / math.sqrt(2.0)),
        one_sided=True,
        description=base.description + " (one-sided)",
    )


def two_sample_power_approx(
    theta1,
    theta2,
    restriction: Restriction,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    n1: int,
    n2: int,
    level: float = 0.05,
) -> float:
    """Normal approximation to the two-sample power at a fixed alternative:
    :func:`~robustsurv.hypothesis.power_approx` at the stacked point with
    covariance diag((n2/N) Sigma1, (n1/N) Sigma2) and effective size
    n1 n2 / N.  For a linear restriction this is

        1 - Phi( sqrt((n1+n2)/(n1 n2)) / (2 sqrt(l)) * (chi2_{r,level} - n1 n2/(n1+n2) l) )

    with l = m^T SigmaTilde^{-1} m evaluated at (theta1, theta2)."""
    theta = np.concatenate((np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)))
    sigma = np.array(_stacked_sigma(n2 / (n1 + n2), sigma1, sigma2))
    return power_approx(theta, restriction, sigma, n1 * n2 / (n1 + n2), level)


def two_sample_contiguous(
    delta1,
    delta2,
    restriction: Restriction,
    sigma_tilde: np.ndarray,
    omega: float,
    theta10,
    theta20,
    level: float = 0.05,
) -> float:
    """Asymptotic power against theta_i0 + delta_i / sqrt(n_i): noncentral
    chi-square_r tail with noncentrality W^T SigmaTilde^{-1} W where
    W = sqrt(omega) M1^T delta1 + sqrt(1-omega) M2^T delta2 = M^T d for the
    stacked shift d = (sqrt(omega) delta1, sqrt(1-omega) delta2)."""
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    jac = restriction.jacobian(np.concatenate((np.asarray(theta10, dtype=float), np.asarray(theta20, dtype=float))))
    w = jac.T @ np.concatenate((np.sqrt(omega) * np.asarray(delta1), np.sqrt(1.0 - omega) * np.asarray(delta2)))
    ncp = _wald_form(w.tolist(), np.eye(w.size).tolist(), np.asarray(sigma_tilde, dtype=float).tolist())[0]
    return noncentral_chi2_sf(chi2_quantile(restriction.r, level), restriction.r, ncp)
