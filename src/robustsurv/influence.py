"""Influence diagnostics for the estimators and the Wald-type tests.

Everything here is a model-level computation: given a family, a parameter and
a divergence tuning constant it quantifies how a point contamination at t
moves the estimator (IF), the test statistic (second-order IF; the
first-order one vanishes at the null), and the asymptotic contiguous power
(PIF).  The test-level quantities need the asymptotic covariance
Sigma(psi; theta0), which depends on the censoring law; by default the
censoring-free covariance (the no-censoring limit, available in closed form)
is used, and callers holding a data-based estimate can pass it instead.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import ParametricFamily, lambda_model, mdpde_psi

__all__ = [
    "IfCurve",
    "sigma_model",
    "if_estimator",
    "if_curve",
    "if2_wald",
    "noncentral_weights",
    "noncentral_chi2_sf",
    "kstar",
    "contaminated_contiguous_power",
    "pif",
    "lif",
    "if2_two_sample",
]


def sigma_model(family: ParametricFamily, theta, alpha: float) -> np.ndarray:
    """Censoring-free asymptotic covariance of the divergence estimator.

    Lambda^{-1} C0 Lambda^{-1} with C0 = integral of psi psi^T dF, which
    reduces to kmat(2 alpha) - jvec(alpha) jvec(alpha)^T.
    """
    lam = lambda_model(family, theta, alpha)
    jvec = family.weighted_integrals(theta, alpha).jvec
    c0 = family.weighted_integrals(theta, 2.0 * alpha).kmat - np.outer(jvec, jvec)
    inv = np.linalg.inv(lam)
    sigma = inv @ c0 @ inv.T
    return 0.5 * (sigma + sigma.T)


def if_estimator(family: ParametricFamily, theta0, alpha: float, t) -> np.ndarray:
    """Estimator influence function Lambda^{-1} psi(t; theta0).

    Bounded over t for alpha > 0 and unbounded at alpha = 0.  Scalar t gives
    shape (p,); an array gives (len(t), p).

    Sign convention: this is the estimating-function form (at alpha = 0 it
    equals theta0 - t for the exponential mean), whose sign is opposite to
    the raw derivative of the estimator functional under contamination; all
    quadratic-form diagnostics built from it are sign-invariant, and the
    power influence function uses the same convention throughout.
    """
    lam = lambda_model(family, theta0, alpha)
    psi = mdpde_psi(family, theta0, alpha, t)
    return np.linalg.solve(lam, np.atleast_2d(psi).T).T.reshape(np.shape(psi))


@dataclass(frozen=True)
class IfCurve:
    """Influence values on a contamination grid, ready for CSV plotting."""

    t: np.ndarray
    values: np.ndarray  # (len(t), k)
    columns: tuple[str, ...]
    kind: str
    family_id: str
    theta0: tuple[float, ...]
    alpha: float

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *self.columns])
            values = np.atleast_2d(self.values.T).T
            for ti, row in zip(self.t, values):
                writer.writerow([f"{ti:.17g}", *(f"{v:.17g}" for v in np.atleast_1d(row))])


def if_curve(family: ParametricFamily, theta0, alpha: float, t_grid) -> IfCurve:
    """Estimator IF evaluated on a grid of contamination points."""
    t_grid = np.asarray(t_grid, dtype=float)
    values = if_estimator(family, theta0, alpha, t_grid)
    return IfCurve(
        t=t_grid,
        values=np.atleast_2d(values.T).T,
        columns=tuple(f"if_{name}" for name in family.param_names),
        kind="estimator",
        family_id=family.family_id,
        theta0=tuple(np.atleast_1d(np.asarray(theta0, dtype=float))),
        alpha=alpha,
    )


def _sigma_star(family, theta0, alpha, restriction, sigma):
    theta0 = np.asarray(theta0, dtype=float)
    if np.max(np.abs(restriction.m(theta0))) > 1e-8:
        raise ValueError("theta0 must satisfy the null restriction")
    if sigma is None:
        sigma = sigma_model(family, theta0, alpha)
    jac = np.asarray(restriction.jacobian(theta0), dtype=float)
    return jac, jac.T @ np.asarray(sigma, dtype=float) @ jac


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
    jac, inner = _sigma_star(family, theta0, alpha, restriction, sigma)
    iv = np.atleast_2d(if_estimator(family, theta0, alpha, t))
    proj = iv @ jac
    values = 2.0 * np.einsum("ij,ij->i", proj, np.linalg.solve(inner, proj.T).T)
    return float(values[0]) if np.ndim(t) == 0 else values


def noncentral_weights(s: float, v_max: int | None = None, *, tail: float = 1e-12) -> np.ndarray:
    """Poisson(s/2) mixture weights C_v, truncated when the omitted Poisson
    tail falls below ``tail`` (or at v_max when given)."""
    if s < 0.0:
        raise ValueError("noncentrality must be nonnegative")
    half = 0.5 * s
    weights = [np.exp(-half)]
    cumulative = weights[0]
    v = 0
    limit = v_max if v_max is not None else 100_000
    while cumulative < 1.0 - tail and v < limit:
        v += 1
        weights.append(weights[-1] * half / v)
        cumulative += weights[-1]
    return np.asarray(weights)


def noncentral_chi2_sf(q: float, df: int, ncp: float, *, tail: float = 1e-12) -> float:
    """P(chi2_df(ncp) > q) by the Poisson mixture of central chi-square tails."""
    weights = noncentral_weights(ncp, tail=tail)
    dfs = df + 2.0 * np.arange(weights.size)
    return float(weights @ special.chdtrc(dfs, q))


def kstar(s: float, p: int, level: float = 0.05, *, tail: float = 1e-12) -> float:
    """Series coefficient K*_p(s) of the power influence function.

    The printed series has an s^{v-1} factor whose v = 0 term is finite only
    after algebraic simplification; collapsing adjacent terms gives the
    numerically stable, manifestly finite form

        K*_p(s) = sum_u pois_u(s/2) [P(chi2_{p+2u+2} > c) - P(chi2_{p+2u} > c)]

    whose s -> 0 limit is the u = 0 difference.
    """
    c = float(special.chdtri(p, level))
    weights = noncentral_weights(s, tail=tail)
    dfs = p + 2.0 * np.arange(weights.size)
    tails = special.chdtrc(dfs, c)
    tails_next = special.chdtrc(dfs + 2.0, c)
    return float(weights @ (tails_next - tails))


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
    jac, inner = _sigma_star(family, theta0, alpha, restriction, sigma)
    shifted = np.asarray(d, dtype=float) + epsilon * if_estimator(family, theta0, alpha, t)
    md = jac.T @ shifted
    ncp = float(md @ np.linalg.solve(inner, md))
    c = float(special.chdtri(restriction.r, level))
    return noncentral_chi2_sf(c, restriction.r, ncp)


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
    estimating functions (see :func:`lif`)."""
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
    jac, inner = _sigma_star(family, theta0, alpha, restriction, sigma)
    s0 = np.linalg.solve(inner, jac.T @ d) @ jac.T  # row vector d^T M inner^{-1} M^T
    s = float(s0 @ d)
    iv = np.atleast_2d(if_estimator(family, theta0, alpha, t))
    values = kstar(s, restriction.r, level) * (iv @ s0)
    return float(values[0]) if np.ndim(t) == 0 else values


def lif(family: ParametricFamily, theta0, alpha: float, restriction, t, level: float = 0.05) -> float:
    """Level influence function; identically zero whenever the estimator IF is
    finite at t (all alpha for point contamination)."""
    if_estimator(family, theta0, alpha, t)  # surfaces domain errors
    return 0.0


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

    Contamination in arm i contributes M_i^T IF(t_i) evaluated at that arm's
    null parameter; identical contamination in both arms of a homogeneity
    null cancels exactly.
    """
    if t1 is None and t2 is None:
        raise ValueError("supply a contamination point for at least one arm")
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    theta10 = np.asarray(theta10, dtype=float)
    theta20 = np.asarray(theta20, dtype=float)
    if np.max(np.abs(restriction.m(theta10, theta20))) > 1e-8:
        raise ValueError("(theta10, theta20) must satisfy the null restriction")
    m1 = np.asarray(restriction.jacobian1(theta10, theta20), dtype=float)
    m2 = np.asarray(restriction.jacobian2(theta10, theta20), dtype=float)
    if sigma1 is None:
        sigma1 = sigma_model(family, theta10, alpha)
    if sigma2 is None:
        sigma2 = sigma_model(family, theta20, alpha)
    pooled = omega * m1.T @ sigma1 @ m1 + (1.0 - omega) * m2.T @ sigma2 @ m2
    q = np.zeros(restriction.r)
    if t1 is not None:
        q = q + m1.T @ if_estimator(family, theta10, alpha, float(t1))
    if t2 is not None:
        q = q + m2.T @ if_estimator(family, theta20, alpha, float(t2))
    return float(2.0 * q @ np.linalg.solve(pooled, q))
