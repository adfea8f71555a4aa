"""Quadrature reference for the closed-form model integrals.

The package evaluates xi, jvec and kmat in closed form only.  The tests check
those forms (and the estimating function's Fisher consistency, the model
sensitivity and the model sandwich) against adaptive Gauss-Legendre
quadrature over a per-family substitution of (0, inf) onto the unit
interval, kept here as an independent oracle.

Integrands are evaluated vectorized: the callable receives an array of
abscissas and may return either a 1-D array (scalar integrand) or a 2-D array
with one column per component, in which case all components are integrated
in one pass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from robustsurv.model import ParametricFamily, WeightedIntegrals


class QuadratureError(RuntimeError):
    """Panel doubling failed to reach the requested tolerance."""


@lru_cache(maxsize=8)
def _gauss_legendre_unit(order: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights for (0, 1) instead of the textbook (-1, 1)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _composite(
    g: Callable[[np.ndarray], np.ndarray], panels: int, order: int
) -> np.ndarray:
    base, wts = _gauss_legendre_unit(order)
    width = 1.0 / panels
    t = (np.arange(panels)[:, None] * width + base[None, :] * width).ravel()
    values = np.asarray(g(t), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if not np.all(np.isfinite(values)):
        raise QuadratureError("integrand returned non-finite values")
    w = np.tile(wts * width, panels)
    return w @ values


def integrate_unit(
    g: Callable[[np.ndarray], np.ndarray],
    *,
    atol: float = 1e-8,
    rtol: float = 1e-8,
    order: int = 20,
    start_panels: int = 4,
    max_panels: int = 1024,
) -> np.ndarray:
    """Integrate ``g`` over (0, 1), doubling panels until two successive
    composite Gauss-Legendre estimates agree to ``atol + rtol*|I|`` in every
    component.

    Returns a 1-D array of component integrals (length 1 for scalar
    integrands).  Raises :class:`QuadratureError` when ``max_panels`` is
    reached without convergence or the integrand is non-finite.
    """
    panels = start_panels
    previous = _composite(g, panels, order)
    while panels < max_panels:
        panels *= 2
        current = _composite(g, panels, order)
        err = np.abs(current - previous)
        if np.all(err <= atol + rtol * np.abs(current)):
            return current
        previous = current
    raise QuadratureError(
        f"quadrature did not converge to atol={atol}, rtol={rtol} "
        f"within {max_panels} panels"
    )


def unit_substitution(
    family: ParametricFamily, theta, t: np.ndarray, alpha: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Map t in (0,1) to x in (0,inf); returns (x, dx/dt).

    The map may depend on alpha so the transformed f^(1+alpha) integrands
    vanish to high order at the endpoints.
    """
    if family.family_id == "exponential":
        (m,) = family.validate(theta)
        return m * t / (1.0 - t), m / (1.0 - t) ** 2
    if family.family_id == "weibull":
        # exponent chosen so the transformed integrand vanishes like t^4 at
        # the origin (the raw 1/b map leaves a w^kappa endpoint singularity
        # that degrades Gauss-Legendre to algebraic convergence)
        sigma, b = family.validate(theta)
        kappa = alpha * (b - 1.0) / b
        c = max(2.0, 5.0 / (kappa + 1.0)) if kappa > -1.0 else 2.0
        ratio = t / (1.0 - t)
        x = sigma * np.power(ratio, c / b)
        jac = (sigma * c / b) * np.power(ratio, c / b - 1.0) / (1.0 - t) ** 2
        return x, jac
    raise ValueError(f"no unit substitution for {family.family_id}")


def weighted_integrals_quadrature(
    family: ParametricFamily, theta, alpha: float, *, atol: float = 1e-8, rtol: float = 1e-8
) -> WeightedIntegrals:
    """(xi, jvec, kmat) by adaptive Gauss-Legendre on the transformed
    domain; one vectorized pass integrates all 1 + p + p(p+1)/2 components.
    """
    theta = family.validate(theta)
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    p = family.dim
    iu, ju = np.triu_indices(p)

    def integrand(t: np.ndarray) -> np.ndarray:
        x, jac = unit_substitution(family, theta, t, alpha)
        weight = np.exp((1.0 + alpha) * family.logpdf(theta, x)) * jac
        u = family.score(theta, x)
        cols = [weight]
        cols.extend(u[:, j] * weight for j in range(p))
        cols.extend(u[:, i] * u[:, j] * weight for i, j in zip(iu, ju))
        return np.column_stack(cols)

    flat = integrate_unit(integrand, atol=atol, rtol=rtol)
    xi = float(flat[0])
    jvec = flat[1 : 1 + p].copy()
    kmat = np.empty((p, p))
    kmat[iu, ju] = flat[1 + p :]
    kmat[ju, iu] = flat[1 + p :]
    return WeightedIntegrals(xi, jvec, kmat)
