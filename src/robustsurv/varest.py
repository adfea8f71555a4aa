"""Censoring-free estimation of the M-estimator sandwich covariance.

The asymptotic covariance of sqrt(n)(theta_hat - theta0) is
Lambda^{-1} C Lambda^{-1}.  C depends on the unknown censoring law only
through the distribution of (Z, delta), so it can be estimated by plugging
the empirical sub-distribution functions into the gamma functionals.  At the
ordered observations those plug-ins collapse to explicit order-statistic sums
(gamma0/gamma below, prefix/suffix accumulations for the phi-weighted ones),
which makes the whole estimate O(n log n): one sort plus linear passes.
gamma0 and gamma depend on the sample alone, so they are built once per
sample and shared by every fit, alpha and psi on it; only the phi-weighted
passes are redone for each psi.

All accumulations follow the canonical ordering (events precede censorings at
ties); that ordering is the only point where the tie rule touches numerics.
"""

from __future__ import annotations

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
    """Lambda is numerically singular at theta_hat (assumption failure)."""


@dataclass(frozen=True)
class GammaTables:
    """gamma-hat quantities evaluated at the ordered observations.

    gamma0 and gamma are plain read-only arrays; the phi-weighted
    gamma1/gamma2 are computed on demand from phi evaluated at the ordered
    observations, one column per psi component when phi is (n, p).
    """

    z: np.ndarray
    delta: np.ndarray
    gamma0: np.ndarray
    gamma: np.ndarray

    @property
    def n(self) -> int:
        return int(self.z.size)

    def _phi_values(self, phi) -> np.ndarray:
        values = phi(self.z) if callable(phi) else np.asarray(phi, dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != self.z.size:
            raise ValueError("phi values must align with the ordered sample")
        return values

    def _gamma12(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gamma1, gamma2) of phi values; the accumulations run down axis 0,
        so every column gets the same bits as it would on its own."""
        col = (slice(None),) + (None,) * (values.ndim - 1)
        n = self.n
        events = (self.delta == 1)[col] * values * self.gamma0[col]
        # suffix[i] = sum_{j > i} events[j]  (0-based i)
        suffix = np.zeros_like(events)
        suffix[:-1] = np.cumsum(events[::-1], axis=0)[::-1][1:]
        prefix = np.cumsum(events * self.gamma[col], axis=0)  # sum_{j <= i} with gamma(Z_j)
        gamma1 = suffix / (n - np.arange(n))[col]
        gamma2 = (prefix + self.gamma[col] * suffix) / n
        return gamma1, gamma2

    def gamma1(self, phi) -> np.ndarray:
        """gamma1_hat(Z_(i); phi) = sum_{j>i} delta_j phi(Z_j) gamma0(Z_j) / (n - i + 1),
        a suffix sum over later events scaled by the number at risk."""
        return self._gamma12(self._phi_values(phi))[0]

    def gamma2(self, phi) -> np.ndarray:
        """gamma2_hat(Z_(i); phi) = (1/n) sum_j delta_j phi(Z_j) gamma0(Z_j) gamma(Z_(min(i,j))),
        evaluated as a prefix sum over j <= i plus gamma(Z_(i)) times a suffix sum."""
        return self._gamma12(self._phi_values(phi))[1]


def gamma_tables(sample: CensoredSample) -> GammaTables:
    """Exact order-statistic forms of the gamma-hat plug-ins.

    gamma0(Z_(i)) = exp(sum_{j<i} I(delta_j=0)/(n-j)) and
    gamma(Z_(i)) = sum_{j<i} n I(delta_j=0)/(n-j)^2, with empty sums at i=1;
    denominators never vanish because j runs to i-1 <= n-1.  They depend on
    the sample alone: built on the first call for a sample, shared read-only
    afterwards.
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
    gamma0.setflags(write=False)
    gamma.setflags(write=False)
    return GammaTables(z=sample.z, delta=sample.delta, gamma0=gamma0, gamma=gamma)


def u_hat(sample: CensoredSample, psi: Callable[[np.ndarray], np.ndarray], theta=None) -> np.ndarray:
    """Estimated transformation U_hat of each observation, one row per ordered
    observation and one column per psi component:

        U_hat = phi(Z) gamma0(Z) delta + gamma1(Z; phi)(1 - delta) - gamma2(Z; phi).

    ``psi`` maps (x,) -> (len(x), p) when ``theta`` is None, or (x, theta) ->
    (len(x), p) otherwise.  The population centering term of U vanishes at the
    fitted parameter and is absent here, matching the plug-in estimator.  All
    p columns are formed in one pass over the sample's shared gamma tables.
    """
    tables = gamma_tables(sample)
    values = psi(sample.z) if theta is None else psi(sample.z, theta)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] != sample.n:
        raise ValueError("psi must return one row per ordered observation")
    if not np.all(np.isfinite(values)):
        raise ValueError("psi evaluated to non-finite values on the sample")
    delta = tables.delta.astype(float)[:, None]
    gamma1, gamma2 = tables._gamma12(values)
    return values * tables.gamma0[:, None] * delta + gamma1 * (1.0 - delta) - gamma2


def c_hat(sample: CensoredSample, psi: Callable[[np.ndarray], np.ndarray], theta=None) -> np.ndarray:
    """Average outer product of the U_hat rows; symmetric PSD by construction."""
    u = u_hat(sample, psi, theta)
    return u.T @ u / sample.n


def sigma_hat(lambda_mat: np.ndarray, c_mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Sandwich Lambda^{-1} C Lambda^{-1}, symmetrized against roundoff.

    Returns (sigma, condition number of Lambda); raises
    :class:`SingularSensitivityError` when Lambda is not invertible.
    """
    lambda_mat = np.asarray(lambda_mat, dtype=float)
    c_mat = np.asarray(c_mat, dtype=float)
    cond = float(np.linalg.cond(lambda_mat))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSensitivityError(
            f"sensitivity matrix is singular at theta_hat (cond={cond:.3g})"
        )
    inv = np.linalg.inv(lambda_mat)
    sigma = inv @ c_mat @ inv.T
    return 0.5 * (sigma + sigma.T), cond


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
