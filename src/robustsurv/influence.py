"""Influence diagnostics for the estimators and the Wald-type tests.

Everything here is a model-level computation: given a family, a parameter and
a divergence tuning constant it quantifies how a point contamination at t
moves the estimator (IF), the test statistic (second-order IF; the
first-order one vanishes at the null), and the asymptotic contiguous power
(PIF).  The test-level quantities need the asymptotic covariance
Sigma(psi; theta0), which depends on the censoring law; by default the
censoring-free covariance (the no-censoring limit, available in closed form)
is used, and callers holding a data-based estimate can pass it instead.
Lambda^{-1} is the sandwich's float inverse and M^T Sigma M is checked by
the Wald tests' float helpers in ``hypothesis`` (home of the series behind
the PIF's ``kstar`` too), so what those refuse (cond above 1e12) raises
SingularSensitivityError or LinAlgError here as well.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .data import _csv_table
from .hypothesis import (
    _chi2_tails, _poisson_mixture, _wald_form, _wald_inner, chi2_quantile, contiguous_power,
)
from .model import ParametricFamily, _closed_forms, lambda_model, mdpde_psi, validate_alpha
from .twosample import _stacked_sigma
from .varest import _small_inverse, sigma_hat

__all__ = [
    "IfCurve",
    "sigma_model",
    "if_estimator",
    "if_curve",
    "if2_wald",
    "kstar",
    "contaminated_contiguous_power",
    "pif",
    "if2_two_sample",
]


def sigma_model(family: ParametricFamily, theta, alpha: float) -> np.ndarray:
    """Censoring-free asymptotic covariance of the divergence estimator.

    Lambda^{-1} C0 Lambda^{-1} with C0 = integral of psi psi^T dF, which
    reduces to kmat(2 alpha) - jvec(alpha) jvec(alpha)^T; the sandwich is
    varest's :func:`~robustsurv.varest.sigma_hat`.
    """
    theta, alpha = family.validate(theta), validate_alpha(alpha)
    _, jvec, lam = _closed_forms(family, theta, alpha)
    c0 = np.array(_closed_forms(family, theta, 2.0 * alpha)[2]) - np.outer(jvec, jvec)
    return sigma_hat(np.array(lam), c0)[0]


def if_estimator(family: ParametricFamily, theta0, alpha: float, t) -> np.ndarray:
    """Estimator influence function Lambda^{-1} psi(t; theta0).

    Bounded over t for alpha > 0 and unbounded at alpha = 0.  Scalar t gives
    shape (p,); an array gives (len(t), p).  Like the sandwich, it raises
    SingularSensitivityError when cond(Lambda) is above 1e12.

    Sign convention: this is the estimating-function form (at alpha = 0 it
    equals theta0 - t for the exponential mean), whose sign is opposite to
    the raw derivative of the estimator functional under contamination; all
    quadratic-form diagnostics built from it are sign-invariant, and the
    power influence function uses the same convention throughout.
    """
    inverse, _ = _small_inverse(lambda_model(family, theta0, alpha).tolist())
    psi = mdpde_psi(family, theta0, alpha, t)
    return (np.atleast_2d(psi) @ np.array(inverse).T).reshape(np.shape(psi))


@dataclass(frozen=True)
class IfCurve:
    """Influence values on a contamination grid, ready for CSV plotting."""

    t: np.ndarray
    values: np.ndarray  # (len(t), k)
    columns: tuple[str, ...]

    def write_csv(self, path) -> None:
        values = np.atleast_2d(self.values.T).T.tolist()
        _csv_table(["t", *self.columns], ([ti, *row] for ti, row in zip(self.t.tolist(), values)), path)


def if_curve(family: ParametricFamily, theta0, alpha: float, t_grid) -> IfCurve:
    """Estimator IF evaluated on a grid of contamination points."""
    t_grid = np.asarray(t_grid, dtype=float)
    values = if_estimator(family, theta0, alpha, t_grid)
    return IfCurve(
        t=t_grid,
        values=np.atleast_2d(values.T).T,
        columns=tuple(f"if_{name}" for name in family.param_names),
    )


def _null_sigma(family, theta0, alpha, restriction, sigma) -> np.ndarray:
    """Sigma at a null theta0, checking the null; it defaults to sigma_model."""
    theta0 = np.asarray(theta0, dtype=float)
    if np.max(np.abs(restriction.m(theta0))) > 1e-8:
        raise ValueError("theta0 must satisfy the null restriction")
    return np.asarray(sigma_model(family, theta0, alpha) if sigma is None else sigma, dtype=float)


def _null_inverse(family, theta0, alpha, restriction, sigma):
    """(M, (M^T Sigma M)^{-1}) at a null theta0 (see :func:`_null_sigma`),
    on floats; cond(M^T Sigma M) above 1e12 raises LinAlgError as the tests
    and contiguous_power do."""
    sigma = _null_sigma(family, theta0, alpha, restriction, sigma)
    jac = np.asarray(restriction.jacobian(np.asarray(theta0, dtype=float)), dtype=float)
    inner, _ = _wald_inner(jac.tolist(), sigma.tolist())
    return jac, np.array(_small_inverse(inner)[0])


def if2_wald(
    family: ParametricFamily,
    theta0,
    alpha: float,
    restriction,
    t,
    *,
    sigma: np.ndarray | None = None,
) -> np.ndarray | float:
    """Second-order IF of the one-sample Wald functional at the null:

        2 IF(t)^T M (M^T Sigma M)^{-1} M^T IF(t)

    a nonnegative quadratic form in the estimator IF (the first-order IF is
    identically zero at the null)."""
    null = _null_inverse(family, theta0, alpha, restriction, sigma)
    values = _if2_values(*null, np.atleast_2d(if_estimator(family, theta0, alpha, t)))
    return float(values[0]) if np.ndim(t) == 0 else values


def _if2_values(jac, inverse, iv) -> np.ndarray:
    """2 IF^T M (M^T Sigma M)^{-1} M^T IF for each row of the IF table iv."""
    proj = iv @ jac
    return 2.0 * np.einsum("ij,ij->i", proj, proj @ inverse)


def kstar(s: float, p: int, level: float = 0.05) -> float:
    """Series coefficient K*_p(s) of the power influence function.

    The printed series has an s^{v-1} factor whose v = 0 term is finite only
    after algebraic simplification; collapsing adjacent terms gives the
    numerically stable, manifestly finite form

        K*_p(s) = sum_u pois_u(s/2) [P(chi2_{p+2u+2} > c) - P(chi2_{p+2u} > c)]

    whose s -> 0 limit is the u = 0 difference; each difference is a step of
    the tails' recurrence, so no two nearly equal tails are subtracted.
    """
    _, weights, steps = _poisson_mixture(s, lambda v0: (step for _, step in _chi2_tails(p, chi2_quantile(p, level), v0)))
    return math.fsum(map(operator.mul, weights, steps))


def contaminated_contiguous_power(
    family: ParametricFamily,
    theta0,
    alpha: float,
    restriction,
    d,
    epsilon: float,
    t,
    level: float = 0.05,
    *,
    sigma: np.ndarray | None = None,
) -> float:
    """Asymptotic power under the contiguous alternative d with an additional
    epsilon/sqrt(n) contamination at t (the series whose epsilon-derivative at
    zero is the PIF)."""
    sigma = _null_sigma(family, theta0, alpha, restriction, sigma)
    shifted = np.asarray(d, dtype=float) + epsilon * if_estimator(family, theta0, alpha, t)
    return contiguous_power(shifted, restriction, sigma, theta0, level)


def pif(
    family: ParametricFamily,
    theta0,
    alpha: float,
    restriction,
    d,
    t,
    level: float = 0.05,
    *,
    sigma: np.ndarray | None = None,
) -> np.ndarray | float:
    """Power influence function K*_r(S0 d) * S0 IF(t) with
    S0 = d^T M (M^T Sigma M)^{-1} M^T.

    d = 0 is the level case: the LIF, identically zero for bounded
    estimating functions."""
    null = _null_inverse(family, theta0, alpha, restriction, sigma)
    iv = np.atleast_2d(if_estimator(family, theta0, alpha, t))
    values = _pif_values(*null, iv, np.asarray(d, dtype=float), restriction.r, level)
    return float(values[0]) if np.ndim(t) == 0 else values


def _pif_values(jac, inverse, iv, d, r: int, level: float) -> np.ndarray:
    """K*_r(S0 d) S0 IF for each row of the IF table iv, with the row vector
    S0 = d^T M (M^T Sigma M)^{-1} M^T."""
    s0 = (inverse @ (jac.T @ d)) @ jac.T
    return kstar(float(s0 @ d), r, level) * (iv @ s0)


def if2_two_sample(
    family: ParametricFamily,
    theta10,
    theta20,
    alpha: float,
    restriction,
    t1=None,
    t2=None,
    *,
    omega: float = 0.5,
    sigma1: np.ndarray | None = None,
    sigma2: np.ndarray | None = None,
) -> float:
    """Second-order IF of the two-sample Wald functional under the null.

    The one-sample form on the stacked theta0 = (theta10, theta20), with
    covariance diag(omega Sigma1, (1 - omega) Sigma2) and the stacked IF
    (zero in an arm without contamination): contamination in arm i
    contributes M_i^T IF(t_i) evaluated at that arm's null parameter, so
    identical contamination in both arms of a homogeneity null cancels
    exactly.
    """
    if t1 is None and t2 is None:
        raise ValueError("supply a contamination point for at least one arm")
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    theta0 = np.concatenate((np.asarray(theta10, dtype=float), np.asarray(theta20, dtype=float)))
    if np.max(np.abs(restriction.m(theta0))) > 1e-8:
        raise ValueError("(theta10, theta20) must satisfy the null restriction")
    jac = np.asarray(restriction.jacobian(theta0), dtype=float)
    iv, sigmas = [], []
    for theta, t, sigma in ((theta10, t1, sigma1), (theta20, t2, sigma2)):
        iv.append(np.zeros(np.size(theta)) if t is None else if_estimator(family, theta, alpha, float(t)))
        sigmas.append(sigma_model(family, theta, alpha) if sigma is None else sigma)
    q = jac.T @ np.concatenate(iv)
    return 2.0 * _wald_form(q.tolist(), jac.tolist(), _stacked_sigma(omega, *sigmas))[0]
