"""One-sample Wald-type tests with power approximations.

A hypothesis is a restriction m(theta) = 0 with Jacobian M(theta) (p x r,
gradients of the components of m in columns).  Tests use only the
unrestricted estimate and its sandwich covariance: no restricted fit is ever
computed, because the quadratic form in m(theta_hat) already carries the
null.  The significance level is always called ``level``; ``alpha_dpd`` is
reserved for the divergence tuning parameter.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import special

from .estimator import FitResult
from .varest import _small_cond, _small_congruence, _small_solve

__all__ = [
    "Restriction",
    "LinearRestriction",
    "FunctionRestriction",
    "TestReport",
    "wald_statistic",
    "power_approx",
    "contiguous_power",
    "chi2_sf",
    "chi2_quantile",
]


def _central_differences(func, x, step: float) -> np.ndarray:
    """Central differences of func at x, one row per coordinate of x, with
    step step * (1 + |x_j|); shared by the restriction checks and
    power_approx."""
    x = np.asarray(x, dtype=float)
    rows = []
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        rows.append((func(up) - func(down)) / (2.0 * h))
    return np.stack(rows, axis=0)


def chi2_sf(df: int, x: float) -> float:
    """Upper tail of chi-square with df degrees of freedom."""
    return float(special.chdtrc(df, x))


def chi2_quantile(df: int, level: float) -> float:
    """(1 - level) quantile of chi-square with df degrees of freedom."""
    return float(special.chdtri(df, level))


class Restriction:
    """Restriction m(theta) = 0 of rank r; subclasses supply m and M."""

    r: int
    description: str

    def m(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def validate_at(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Check the shapes of m and M, M against finite differences of m
        (1e-6) and its rank (singular values above 1e-10); returns (m, M)."""
        theta = np.asarray(theta, dtype=float)
        m = np.asarray(self.m(theta), dtype=float)
        if m.shape != (self.r,):
            raise ValueError(f"m(theta) must return an r={self.r} vector")
        jac = np.asarray(self.jacobian(theta), dtype=float)
        if jac.shape != (theta.size, self.r):
            raise ValueError(f"jacobian must be {theta.size} x {self.r}")
        if self._checked_rank(theta, jac) < self.r:
            raise ValueError("restriction jacobian is rank-deficient at theta")
        return m, jac

    def _checked_rank(self, theta: np.ndarray, jac: np.ndarray) -> int:
        """Rank of jac after checking it against finite differences of m."""
        fd = _central_differences(self.m, theta, 1e-6)
        if not np.allclose(jac, fd, atol=1e-6, rtol=1e-6):
            raise ValueError("restriction jacobian disagrees with finite differences")
        return int(np.linalg.matrix_rank(jac, tol=1e-10))


@dataclass(frozen=True, eq=False)
class LinearRestriction(Restriction):
    """m(theta) = A^T theta - target; covers simple and per-component nulls.

    The Jacobian is A itself, exactly, so validate_at skips the
    finite-difference check; A and target are read-only copies of the
    caller's arrays, which lets A's rank be taken once.
    """

    matrix: np.ndarray  # (p, r)
    target: np.ndarray  # (r,)
    description: str = ""

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        target = np.atleast_1d(np.array(self.target, dtype=float))
        matrix.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "target", target)

    @property
    def r(self) -> int:
        return int(self.matrix.shape[1])

    def m(self, theta):
        return self.matrix.T @ np.asarray(theta, dtype=float) - self.target

    def jacobian(self, theta):
        return self.matrix

    def _checked_rank(self, theta, jac):
        return self._rank

    @cached_property
    def _rank(self) -> int:
        return int(np.linalg.matrix_rank(self.matrix, tol=1e-10))

    @classmethod
    def simple(cls, theta0) -> "LinearRestriction":
        """H0: theta = theta0 (r = p, M = identity)."""
        theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
        label = ",".join(f"{v:g}" for v in theta0)
        return cls(np.eye(theta0.size), theta0, description=f"theta = ({label})")

    @classmethod
    def component(cls, index: int, value: float, dim: int, name: str | None = None) -> "LinearRestriction":
        """H0: theta[index] = value with the remaining coordinates free."""
        col = np.zeros((dim, 1))
        col[index, 0] = 1.0
        label = name or f"theta[{index}]"
        return cls(col, np.array([value]), description=f"{label} = {value:g}")


@dataclass(frozen=True, eq=False)
class FunctionRestriction(Restriction):
    """General restriction from callables; Jacobian defaults to finite
    differences of m."""

    r: int
    m_func: Callable[[np.ndarray], np.ndarray]
    jacobian_func: Callable[[np.ndarray], np.ndarray] | None = None
    description: str = ""

    def m(self, theta):
        return np.atleast_1d(np.asarray(self.m_func(theta), dtype=float))

    def jacobian(self, theta):
        if self.jacobian_func is None:
            return _central_differences(self.m, theta, 1e-6)
        return np.asarray(self.jacobian_func(theta), dtype=float)


@dataclass(frozen=True)
class TestReport:
    """Wald-type test outcome; p_value is the chi-square upper tail at the
    statistic with df degrees of freedom."""

    statistic: float
    df: int
    p_value: float
    alpha_dpd: float
    description: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "hypothesis": self.description,
            "alpha_dpd": self.alpha_dpd,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
        }
        out.update(self.diagnostics)
        return out

    def summary(self) -> str:
        lines = [
            f"H0: {self.description}",
            f"Wald statistic: {self.statistic:.6g}  (df {self.df})   p-value: {self.p_value:.4g}"
            f"   [alpha_dpd={self.alpha_dpd:g}]",
        ]
        if self.diagnostics:
            pairs = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in self.diagnostics.items())
            lines.append(f"diagnostics: {pairs}")
        return "\n".join(lines)


def wald_statistic(fit: FitResult, restriction: Restriction) -> TestReport:
    """n m(theta_hat)^T [M^T Sigma_hat M]^{-1} m(theta_hat) with p-value from
    chi-square_r; reduces exactly to n (theta_hat - theta0)^T Sigma_hat^{-1}
    (theta_hat - theta0) for the simple restriction.  The r x r algebra runs
    on floats (varest's Cramer solve); cond above 1e12 raises LinAlgError."""
    if not fit.converged:
        raise ValueError("Wald test requires a converged fit")
    m, jac = (a.tolist() for a in restriction.validate_at(fit.theta_hat))
    inner = _small_congruence(list(zip(*jac)), fit.sigma_hat.tolist())
    inner_cond = _small_cond(inner)
    if not inner_cond <= 1e12:
        raise np.linalg.LinAlgError(
            f"M^T Sigma M is numerically singular (cond={inner_cond:.3g})"
        )
    solved = _small_solve(inner, m)
    statistic = fit.n * sum(map(operator.mul, m, solved)) if solved is not None else np.nan
    diagnostics = {
        "lambda_cond": fit.lambda_cond,
        "inner_cond": inner_cond,
        "residual_mass_flagged": fit.residual_mass > 0.05,
    }
    return TestReport(
        statistic=statistic,
        df=restriction.r,
        p_value=chi2_sf(restriction.r, statistic),
        alpha_dpd=fit.alpha,
        description=restriction.description or f"m(theta) = 0 (r={restriction.r})",
        diagnostics=diagnostics,
    )


def _w_bar(theta: np.ndarray, restriction: Restriction, sigma: np.ndarray) -> float:
    m = restriction.m(theta)
    jac = restriction.jacobian(theta)
    inner = jac.T @ sigma @ jac
    return float(m @ np.linalg.solve(inner, m))


def power_approx(
    theta_star,
    restriction: Restriction,
    sigma: np.ndarray,
    n: int,
    level: float = 0.05,
) -> float:
    """Normal approximation to the power at a fixed alternative theta_star:

        1 - Phi( sqrt(n)/sigma_star * (chi2_{r,level}/n - wbar(theta_star)) )

    with wbar the population quadratic form and sigma_star^2 its
    delta-method variance (gradient by central differences, sigma fixed).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    wbar = _w_bar(theta_star, restriction, sigma)
    if wbar <= 1e-14:
        raise ValueError("theta_star satisfies the null; the power approximation is undefined")
    grad = _central_differences(lambda th: _w_bar(th, restriction, sigma), theta_star, 1e-5)
    var_star = float(grad @ sigma @ grad)
    if var_star <= 0.0:
        raise ValueError("degenerate variance in the power approximation")
    quantile = chi2_quantile(restriction.r, level)
    z = np.sqrt(n) / np.sqrt(var_star) * (quantile / n - wbar)
    return float(1.0 - special.ndtr(z))


def contiguous_power(
    d,
    restriction: Restriction,
    sigma: np.ndarray,
    theta0,
    level: float = 0.05,
) -> float:
    """Asymptotic power against theta0 + d/sqrt(n): noncentral chi-square_r
    upper tail with noncentrality d^T M (M^T Sigma M)^{-1} M^T d."""
    from .influence import noncentral_chi2_sf  # series utilities live there

    d = np.asarray(d, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    jac = restriction.jacobian(theta0)
    inner = jac.T @ np.asarray(sigma, dtype=float) @ jac
    md = jac.T @ d
    ncp = float(md @ np.linalg.solve(inner, md))
    return noncentral_chi2_sf(chi2_quantile(restriction.r, level), restriction.r, ncp)
