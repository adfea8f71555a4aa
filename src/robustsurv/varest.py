"""Censoring-free estimation of the M-estimator sandwich covariance.

The asymptotic covariance of sqrt(n)(theta_hat - theta0) is
Lambda^{-1} C Lambda^{-1}.  C depends on the unknown censoring law only
through the distribution of (Z, delta), so it is estimated by the average
outer product of Stute's (1995, Ann. Statist. 23:422) transformation

    U_hat = phi(Z) gamma0(Z) delta + gamma1(Z; phi)(1 - delta) - gamma2(Z; phi),

with the empirical sub-distribution functions plugged into the gamma
functionals.  At the ordered observations (1-based i, j) those plug-ins are

    gamma0(Z_(i)) = exp(sum_{j<i} (1 - delta_j)/(n - j)),
    gamma(Z_(i)) = sum_{j<i} n (1 - delta_j)/(n - j)^2,
    gamma1(Z_(i)) = sum_{j>i} delta_j phi(Z_j) gamma0(Z_j) / (n - i + 1),
    gamma2(Z_(i)) = (1/n) sum_j delta_j phi(Z_j) gamma0(Z_j) gamma(Z_(min(i,j))),

empty sums being 0.  With events = delta phi gamma0, gamma1 is a suffix sum
over later events and gamma2 a prefix sum of events gamma plus gamma times
that suffix, so U_hat = events + coef suffix - prefix/n with the coefficient
coef = (1 - delta)/(n - i + 1) - gamma/n.  The whole estimate is O(n log n):
one sort plus linear passes.  delta gamma0, gamma and coef depend on the
sample alone, so they are built once per sample as read-only (n, 1) columns
and shared by every fit, alpha and psi on it; each psi takes one suffix and
one prefix accumulation.  U_hat reads psi only through events, so psi is
evaluated at the event times alone, and a censored time outside the
family's support (such as 0) never reaches it.  The sandwich is p x p with
p <= 2, assembled on Python floats: Lambda^{-1} by :func:`_small_inverse`
(shared with the influence functions) and Lambda^{-1} C Lambda^{-T} by the
straight-line congruence that the Wald forms share.  u_hat checks the shape
and the finiteness of psi's values on every call.

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
    "CovarianceEstimate",
    "SingularSensitivityError",
    "u_hat",
    "c_hat",
    "sigma_hat",
    "covariance_estimate",
]


class SingularSensitivityError(np.linalg.LinAlgError):
    """Lambda is numerically singular (assumption failure): cond above 1e12."""


def _columns(sample: CensoredSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (n, 1) columns (delta gamma0, gamma, coef) of the module
    docstring; denominators never vanish because j runs to i - 1 <= n - 1.
    Built on the first call for a sample, shared afterwards."""
    return sample._memo("u_columns", _build_columns)


def _build_columns(sample: CensoredSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = sample.n
    censored = (sample.delta == 0).astype(float)
    at_risk = n - np.arange(n, dtype=float)  # n - j + 1 at the j-th observation
    head, later = censored[:-1], at_risk[1:]  # the sums' terms at j = 1 .. n - 1
    gamma0, gamma = np.zeros(n), np.zeros(n)
    np.add.accumulate(head / later, out=gamma0[1:])
    np.exp(gamma0, out=gamma0)
    np.add.accumulate(n * head / later**2, out=gamma[1:])
    columns = ((1.0 - censored) * gamma0)[:, None], gamma[:, None], (censored / at_risk - gamma / n)[:, None]
    for column in columns:
        column.setflags(write=False)
    return columns


def u_hat(sample: CensoredSample, psi: Callable[[np.ndarray, np.ndarray], np.ndarray], theta) -> np.ndarray:
    """Estimated transformation U_hat of each observation (module docstring),
    one row per ordered observation and one column per psi component.

    ``psi`` maps (x, theta) -> (len(x), p) or (len(x),) and is evaluated at
    the event times only (module docstring), the censored rows of events
    being 0; ValueError unless its values align with those times and are
    finite.  The population centering term of U vanishes at the fitted
    parameter and is absent here, matching the plug-in estimator.  All p
    columns are formed in one pass over the sample's shared columns, each
    accumulated down axis 0 with the bits of a pass over that column alone.
    """
    event_gamma0, gamma, coef = _columns(sample)
    (rows,) = sample.delta.nonzero()
    values = np.asarray(psi(sample.z[rows], theta), dtype=float)
    values = values[:, None] if values.ndim == 1 else values
    if values.shape[0] != rows.size:
        raise ValueError("psi must return one row per event time")
    if not np.isfinite(values).all():
        raise ValueError("psi evaluated to non-finite values on the sample")
    events = np.zeros((sample.n, values.shape[1]))
    events[rows] = values
    events *= event_gamma0
    suffix = np.empty_like(events)  # suffix[i] = sum_{j > i} events[j], 0-based
    suffix[-1] = 0.0
    np.add.accumulate(events[:0:-1], axis=0, out=suffix[-2::-1])
    prefix = np.add.accumulate(events * gamma, axis=0)
    # U = events + coef suffix - prefix / n, formed in place in suffix
    suffix *= coef
    suffix += events
    prefix /= sample.n
    suffix -= prefix
    return suffix


def c_hat(sample: CensoredSample, psi: Callable[[np.ndarray, np.ndarray], np.ndarray], theta) -> np.ndarray:
    """Average outer product of the U_hat rows; symmetric PSD by construction."""
    u = u_hat(sample, psi, theta)
    return u.T @ u / sample.n


def _small_congruence(a, b) -> list:
    """a b a^T on Python floats, matrices as lists of rows, as (a b) a^T, each
    entry summed from 0 as sum() sums (0.0 + -0.0 is 0.0); straight-line for
    a 2 x 2 b and an a of one or two rows."""
    if len(b) != 2 or len(a) not in (1, 2):
        left = [[sum(map(operator.mul, row, col)) for col in zip(*b)] for row in a]
        return [[sum(map(operator.mul, row, other)) for other in a] for row in left]
    (b00, b01), (b10, b11) = b
    (x0, x1), *second = a
    l0, l1 = x0 * b00 + x1 * b10, x0 * b01 + x1 * b11
    if not second:
        return [[0.0 + l0 * x0 + l1 * x1]]
    ((y0, y1),) = second
    k0, k1 = y0 * b00 + y1 * b10, y0 * b01 + y1 * b11
    return [[0.0 + l0 * x0 + l1 * x1, 0.0 + l0 * y0 + l1 * y1], [0.0 + k0 * x0 + k1 * x1, 0.0 + k0 * y0 + k1 * y1]]


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
        if all(math.isfinite(v) for row in inverse for v in row):
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
