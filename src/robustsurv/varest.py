"""Censoring-free estimation of the M-estimator sandwich covariance.

The asymptotic covariance of sqrt(n)(theta_hat - theta0) is
Lambda^{-1} C Lambda^{-1}.  C depends on the unknown censoring law only
through the distribution of (Z, delta), so it can be estimated by plugging
the empirical sub-distribution functions into the gamma functionals.  At the
ordered observations those plug-ins collapse to explicit order-statistic sums
(gamma0/gamma below, prefix/suffix accumulations for the phi-weighted ones),
which makes the whole estimate O(n log n): one sort plus linear passes.
gamma0 and gamma depend on the sample alone, so they are built once per
sample and shared by every fit, alpha and psi on it, with the (n, 1)
coefficient columns delta gamma0, gamma and (1 - delta)/(n - i + 1) - gamma/n;
each psi takes one suffix and one prefix accumulation, and U_hat is a linear
combination of them.  The sandwich is p x p with p <= 2, assembled on Python
floats: Lambda^{-1} by :func:`_small_inverse` (shared with the influence
functions), the closed-form condition number and the Cramer solve shared
with the Wald test (the solver's Newton step writes out the same solve).

All accumulations follow the canonical ordering (events precede censorings at
ties); that ordering is the only point where the tie rule touches numerics.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import CensoredSample

__all__ = [
    "GammaTables",
    "CovarianceEstimate",
    "SingularSensitivityError",
    "gamma_tables",
    "u_hat",
    "c_hat",
    "sigma_hat",
    "covariance_estimate",
]


class SingularSensitivityError(np.linalg.LinAlgError):
    """Lambda is numerically singular (assumption failure): cond above 1e12."""


@dataclass(frozen=True)
class GammaTables:
    """gamma-hat quantities evaluated at the ordered observations.

    gamma0 and gamma are plain read-only arrays, the others the read-only
    (n, 1) columns of the module docstring; the phi-weighted gamma1/gamma2
    are computed on demand from phi evaluated at the ordered observations,
    one column per psi component when phi is (n, p).
    """

    z: np.ndarray
    delta: np.ndarray
    gamma0: np.ndarray
    gamma: np.ndarray
    event_gamma0: np.ndarray
    gamma_column: np.ndarray  # gamma[:, None]
    u_coef: np.ndarray

    @property
    def n(self) -> int:
        return int(self.z.size)

    def _phi_values(self, phi) -> np.ndarray:
        values = phi(self.z) if callable(phi) else np.asarray(phi, dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != self.z.size:
            raise ValueError("phi values must align with the ordered sample")
        return values

    def _sums(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, p) columns events = delta phi gamma0, suffix[i] = sum_{j > i}
        events[j] and prefix[i] = sum_{j <= i} events[j] gamma(Z_j) (0-based
        i), accumulated down axis 0: every column gets the bits of its own pass."""
        events = values.reshape(self.n, -1) * self.event_gamma0
        suffix = np.empty_like(events)
        suffix[-1] = 0.0
        np.add.accumulate(events[:0:-1], axis=0, out=suffix[-2::-1])
        return events, suffix, np.add.accumulate(events * self.gamma_column, axis=0)

    def gamma1(self, phi) -> np.ndarray:
        """gamma1_hat(Z_(i); phi) = sum_{j>i} delta_j phi(Z_j) gamma0(Z_j) / (n - i + 1),
        a suffix sum over later events scaled by the number at risk."""
        values = self._phi_values(phi)
        return (self._sums(values)[1] / (self.n - np.arange(self.n))[:, None]).reshape(values.shape)

    def gamma2(self, phi) -> np.ndarray:
        """gamma2_hat(Z_(i); phi) = (1/n) sum_j delta_j phi(Z_j) gamma0(Z_j) gamma(Z_(min(i,j))),
        evaluated as a prefix sum over j <= i plus gamma(Z_(i)) times a suffix sum."""
        values = self._phi_values(phi)
        _, suffix, prefix = self._sums(values)
        return ((prefix + self.gamma_column * suffix) / self.n).reshape(values.shape)


def gamma_tables(sample: CensoredSample) -> GammaTables:
    """Exact order-statistic forms of the gamma-hat plug-ins.

    gamma0(Z_(i)) = exp(sum_{j<i} I(delta_j=0)/(n-j)) and
    gamma(Z_(i)) = sum_{j<i} n I(delta_j=0)/(n-j)^2, with empty sums at i=1;
    denominators never vanish because j runs to i-1 <= n-1.  They and the
    coefficient columns depend on the sample alone: built on the first call
    for a sample, shared read-only afterwards.
    """
    return sample._memo("gamma_tables", _gamma_tables)


def _gamma_tables(sample: CensoredSample) -> GammaTables:
    n = sample.n
    censored = (sample.delta == 0).astype(float)
    j = np.arange(1, n + 1, dtype=float)
    inc0 = np.where(j < n, censored / np.maximum(n - j, 1.0), 0.0)
    incg = np.where(j < n, n * censored / np.maximum(n - j, 1.0) ** 2, 0.0)
    gamma0 = np.exp(np.concatenate(([0.0], np.cumsum(inc0[:-1]))))
    gamma = np.concatenate(([0.0], np.cumsum(incg[:-1])))
    event_gamma0 = ((1.0 - censored) * gamma0)[:, None]
    u_coef = (censored / (n - j + 1.0) - gamma / n)[:, None]
    for arr in (gamma0, gamma, event_gamma0, u_coef):
        arr.setflags(write=False)
    return GammaTables(sample.z, sample.delta, gamma0, gamma, event_gamma0, gamma[:, None], u_coef)


def u_hat(sample: CensoredSample, psi: Callable[[np.ndarray, np.ndarray], np.ndarray], theta) -> np.ndarray:
    """Estimated transformation U_hat of each observation, one row per ordered
    observation and one column per psi component:

        U_hat = phi(Z) gamma0(Z) delta + gamma1(Z; phi)(1 - delta) - gamma2(Z; phi).

    ``psi`` maps (x, theta) -> (len(x), p).  The population centering term of
    U vanishes at the fitted parameter and is absent here, matching the
    plug-in estimator.  All p columns are formed in one pass over the
    sample's shared gamma tables.
    """
    tables = gamma_tables(sample)
    values = np.asarray(psi(sample.z, theta), dtype=float)
    if values.shape[0] != sample.n:
        raise ValueError("psi must return one row per ordered observation")
    if not np.isfinite(values).all():
        raise ValueError("psi evaluated to non-finite values on the sample")
    # gamma1 (1 - delta) - gamma2 = u_coef suffix - prefix / n, formed in
    # place in the fresh suffix and prefix columns
    events, suffix, prefix = tables._sums(values)
    suffix *= tables.u_coef
    suffix += events
    prefix /= sample.n
    suffix -= prefix
    return suffix


def c_hat(sample: CensoredSample, psi: Callable[[np.ndarray, np.ndarray], np.ndarray], theta) -> np.ndarray:
    """Average outer product of the U_hat rows; symmetric PSD by construction."""
    u = u_hat(sample, psi, theta)
    return u.T @ u / sample.n


def _finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def _small_solve(mat, rhs):
    """x with mat x = rhs on Python floats (mat by rows, p <= 2), by Cramer's
    rule; None when mat is not finite or singular or x is not finite."""
    if len(rhs) == 1:
        det, x = mat[0][0], (rhs[0],)
    else:
        (a, b), (c, d) = mat
        det, x = a * d - b * c, (d * rhs[0] - b * rhs[1], a * rhs[1] - c * rhs[0])
    if not (_finite(mat) and det != 0.0):
        return None
    x = tuple([v / det for v in x])
    return x if all(map(math.isfinite, x)) else None


def _small_congruence(a, b) -> list:
    """a b a^T on Python floats, matrices as lists of rows, as (a b) a^T."""
    left = [[sum(map(operator.mul, row, col)) for col in zip(*b)] for row in a]
    return [[sum(map(operator.mul, row, other)) for other in a] for row in left]


def _small_cond(mat) -> float:
    """2-norm condition number of a 1 x 1 or 2 x 2 matrix of Python floats
    (by rows), s_max^2 / |det| with s_max = (|(a + d, b - c)| + |(a - d, b +
    c)|) / 2; inf unless 0 < |det| < inf (so for any non-finite entry)."""
    if len(mat) == 1:
        return 1.0 if 0.0 < abs(mat[0][0]) < math.inf else math.inf
    (a, b), (c, d) = mat
    det = abs(a * d - b * c)
    s_max = 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))
    return s_max * (s_max / det) if 0.0 < det < math.inf else math.inf


def _small_inverse(mat) -> tuple[list, float]:
    """(inverse, 2-norm condition number) of a 1 x 1 or 2 x 2 matrix of
    Python floats (by rows), the inverse by its adjugate.  Raises
    :class:`SingularSensitivityError` when the matrix is not invertible:
    cond above 1e12 or a non-finite inverse."""
    cond = _small_cond(mat)
    if cond <= 1e12:
        if len(mat) == 1:
            inverse = [[1.0 / mat[0][0]]]
        else:
            (a, b), (c, d) = mat
            det = a * d - b * c
            inverse = [[d / det, -b / det], [-c / det, a / det]]
        if _finite(inverse):
            return inverse, cond
    raise SingularSensitivityError(f"sensitivity matrix is singular (cond={cond:.3g})")


def sigma_hat(lambda_mat: np.ndarray, c_mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Sandwich Lambda^{-1} C Lambda^{-T} for p <= 2, symmetrized against
    roundoff, on Python floats (Lambda^{-1} by :func:`_small_inverse`).
    Returns (sigma, 2-norm condition number of Lambda); raises
    :class:`SingularSensitivityError` when Lambda is not invertible (cond
    above 1e12) and ValueError for matrices larger than 2 x 2."""
    lam = np.asarray(lambda_mat, dtype=float)
    c = np.asarray(c_mat, dtype=float)
    if lam.shape not in ((1, 1), (2, 2)) or c.shape != lam.shape:
        raise ValueError(f"sigma_hat takes p x p matrices with p <= 2, got {lam.shape} and {c.shape}")
    inverse, cond = _small_inverse(lam.tolist())
    sigma = _small_congruence(inverse, c.tolist())
    p = range(len(inverse))
    return np.array([[0.5 * (sigma[i][j] + sigma[j][i]) for j in p] for i in p]), cond


@dataclass(frozen=True)
class CovarianceEstimate:
    c_hat: np.ndarray
    lambda_hat: np.ndarray
    sigma_hat: np.ndarray
    lambda_cond: float


def covariance_estimate(
    sample: CensoredSample,
    psi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta,
    lambda_mat: np.ndarray,
) -> CovarianceEstimate:
    """Bundle (C_hat, Lambda, Sigma_hat, cond) for a fitted parameter."""
    c_mat = c_hat(sample, psi, theta)
    sigma, cond = sigma_hat(lambda_mat, c_mat)
    return CovarianceEstimate(c_hat=c_mat, lambda_hat=np.asarray(lambda_mat, dtype=float), sigma_hat=sigma, lambda_cond=cond)
