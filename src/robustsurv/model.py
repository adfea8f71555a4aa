"""Parametric lifetime families and the alpha-weighted model integrals.

The divergence-based estimating machinery needs, besides the density f and
score u = grad log f, three weighted integrals per (theta, alpha):

    xi    = integral of f^(1+alpha)
    jvec  = integral of u f^(1+alpha)            (p-vector)
    kmat  = integral of u u^T f^(1+alpha)        (p x p)

Both shipped families (exponential by mean, Weibull by scale/shape) evaluate
these in closed form; the exponential ones are elementary, while the Weibull
ones follow from the substitution w = (x/sigma)^b, which turns every
integrand into w^c (log w)^m e^{-(1+alpha) w} and hence into gamma /
digamma / trigamma expressions.  The same integrals give the derivative of
jvec in theta, which the estimator's Newton solver needs for the exact
Jacobian of its estimating equation.  The closed forms are the only
evaluation path; the test suite checks them against adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

__all__ = [
    "FamilySpec",
    "ParametricFamily",
    "Exponential",
    "Weibull",
    "EXPONENTIAL",
    "WEIBULL",
    "WeightedIntegrals",
    "get_family",
    "mdpde_psi",
    "lambda_model",
]


class WeightedIntegrals(NamedTuple):
    xi: float
    jvec: np.ndarray
    kmat: np.ndarray


def _as_theta(theta) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim != 1:
        raise ValueError("theta must be a 1-D parameter vector")
    return arr


class ParametricFamily:
    """A positive lifetime model with density, score and weighted integrals.

    Subclasses provide the closed forms; everything data-facing (sampling,
    cdf/sf, log-density) is exposed here so the fitting and variance layers
    never special-case the family.
    """

    family_id: str = ""
    param_names: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.param_names)

    def validate(self, theta) -> np.ndarray:
        theta = _as_theta(theta)
        if theta.shape[0] != self.dim:
            raise ValueError(
                f"{self.family_id} expects {self.dim} parameter(s), got {theta.shape[0]}"
            )
        if not np.all(np.isfinite(theta)) or np.any(theta <= 0.0):
            raise ValueError(f"invalid {self.family_id} parameter {theta!r}")
        return theta

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
            raise ValueError("evaluation points must be positive and finite")
        return x

    # -- subclass surface -------------------------------------------------
    def logpdf(self, theta, x) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, theta, x) -> np.ndarray:
        raise NotImplementedError

    def score(self, theta, x) -> np.ndarray:
        """Gradient of log f at each x; shape (len(x), p)."""
        raise NotImplementedError

    def mean(self, theta) -> float:
        raise NotImplementedError

    def sample(self, theta, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def weighted_integrals(self, theta, alpha: float) -> WeightedIntegrals:
        """Closed-form (xi, jvec, kmat)."""
        raise NotImplementedError

    # The closed forms below take theta as a sequence of p scalars and do
    # their scalar arithmetic in the type they are given.  The solver passes
    # Python floats (theta.tolist()), whose arithmetic costs a fraction of
    # numpy scalars' but raises ArithmeticError (OverflowError,
    # ZeroDivisionError) where numpy returns inf or NaN; the solver counts
    # those as rejected trial points.
    # The public methods pass the validated array, whose numpy scalars keep
    # numpy's overflow semantics.
    def _pointwise(self, theta, x: np.ndarray, order: int):
        """(log f, u, grad u) at x from one pass, for theta and x already
        validated; u is None at order 0 and grad u (shape (..., p, p)) is None
        below order 2.  The solver's evaluations call this directly."""
        raise NotImplementedError

    def _integrals(self, theta, alpha: float, jacobian: bool):
        """(xi, jvec, kmat, djvec) for an already validated theta, where
        djvec = d jvec / d theta = integral of grad u f^(1+alpha) plus
        (1+alpha) kmat.  Without ``jacobian`` only xi and jvec are formed
        (kmat and djvec are None), which skips the trigamma terms."""
        raise NotImplementedError

    def _validated_integrals(self, theta, alpha: float) -> WeightedIntegrals:
        theta = self.validate(theta)
        if alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        xi, jvec, kmat, _ = self._integrals(theta, alpha, True)
        return WeightedIntegrals(float(xi), jvec, kmat)

    # -- generic paths ----------------------------------------------------
    def pdf(self, theta, x) -> np.ndarray:
        return np.exp(self.logpdf(theta, x))

    def sf(self, theta, x) -> np.ndarray:
        return 1.0 - self.cdf(theta, x)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.param_names}>"


class Exponential(ParametricFamily):
    """Exponential lifetimes parameterized by the mean."""

    family_id = "exponential"
    param_names = ("mean",)

    def logpdf(self, theta, x):
        return self._pointwise(self.validate(theta), self._check_x(x), 0)[0]

    def cdf(self, theta, x):
        (m,) = self.validate(theta)
        return -np.expm1(-np.asarray(x, dtype=float) / m)

    def score(self, theta, x):
        return self._pointwise(self.validate(theta), self._check_x(x), 1)[1]

    def mean(self, theta):
        (m,) = self.validate(theta)
        return m

    def sample(self, theta, rng, size):
        (m,) = self.validate(theta)
        return rng.exponential(m, size)

    def weighted_integrals(self, theta, alpha):
        return self._validated_integrals(theta, alpha)

    def _pointwise(self, theta, x, order):
        (m,) = theta
        logf = -np.log(m) - x / m
        u = ((x - m) / m**2)[..., None] if order >= 1 else None
        du = ((m - 2.0 * x) / m**3)[..., None, None] if order >= 2 else None
        return logf, u, du

    def _integrals(self, theta, alpha, jacobian):
        (m,) = theta
        beta = 1.0 + alpha
        xi = m**-alpha / beta
        jvec = np.array([-alpha * m ** -(alpha + 1.0) / beta**2])
        if not jacobian:
            return xi, jvec, None, None
        kmat = np.array([[(1.0 + alpha**2) * beta**-3 * m ** -(alpha + 2.0)]])
        # integral of grad u f^(1+alpha), grad u = (m - 2x) / m^3
        h = (alpha - 1.0) * m ** -(alpha + 2.0) / beta**2
        return xi, jvec, kmat, h + beta * kmat

class Weibull(ParametricFamily):
    """Weibull lifetimes with scale sigma and shape b: F(x) = 1 - exp(-(x/sigma)^b)."""

    family_id = "weibull"
    param_names = ("scale", "shape")

    def logpdf(self, theta, x):
        return self._pointwise(self.validate(theta), self._check_x(x), 0)[0]

    def cdf(self, theta, x):
        sigma, b = self.validate(theta)
        x = np.asarray(x, dtype=float)
        return -np.expm1(-np.power(np.maximum(x, 0.0) / sigma, b))

    def score(self, theta, x):
        return self._pointwise(self.validate(theta), self._check_x(x), 1)[1]

    def mean(self, theta):
        sigma, b = self.validate(theta)
        return sigma * special.gamma(1.0 + 1.0 / b)

    def sample(self, theta, rng, size):
        sigma, b = self.validate(theta)
        return sigma * rng.weibull(b, size)

    def weighted_integrals(self, theta, alpha):
        return self._validated_integrals(theta, alpha)

    def _pointwise(self, theta, x, order):
        sigma, b = theta
        logx = np.log(x / sigma)
        w = np.exp(b * logx)
        logf = np.log(b / sigma) + (b - 1.0) * logx - w
        if order == 0:
            return logf, None, None
        u = np.empty(logx.shape + (2,))
        u[..., 0] = (b / sigma) * (w - 1.0)
        u[..., 1] = 1.0 / b + logx * (1.0 - w)
        if order == 1:
            return logf, u, None
        du = np.empty(logx.shape + (2, 2))
        du[..., 0, 0] = -(b / sigma**2) * (w - 1.0) - (b / sigma) ** 2 * w
        du[..., 0, 1] = du[..., 1, 0] = (w - 1.0 + b * logx * w) / sigma
        du[..., 1, 1] = -1.0 / b**2 - logx**2 * w
        return logf, u, du

    def _integrals(self, theta, alpha, jacobian):
        sigma, b = theta
        beta = 1.0 + alpha
        kappa = alpha * (b - 1.0) / b
        if kappa <= -1.0:
            raise ValueError(
                f"f^(1+alpha) is not integrable for shape={b}, alpha={alpha}"
            )

        # i0/i1/i2[m] = integral of w^c (log w)^k e^{-beta w} dw at
        # c = kappa + m, for k = 0, 1, 2; trigamma is zeta(2, .), which is
        # what polygamma(1, .) evaluates, without its wrapper's overhead; each
        # special function is called once on all the c + 1
        cs = (kappa, kappa + 1.0, kappa + 2.0) if jacobian else (kappa, kappa + 1.0)
        c1 = np.array([c + 1.0 for c in cs])
        i0 = [g * beta ** -c for g, c in zip(special.gamma(c1).tolist(), c1.tolist())]
        d = (special.digamma(c1) - np.log(beta)).tolist()
        i1 = [g * dm for g, dm in zip(i0, d)]

        pref = (b / sigma) ** alpha
        xi = pref * i0[0]
        j_scale = pref * (b / sigma) * (i0[1] - i0[0])
        j_shape = pref / b * (i0[0] + i1[0] - i1[1])
        jvec = np.array([j_scale, j_shape])
        if not jacobian:
            return xi, jvec, None, None

        i2 = [g * (dm * dm + z) for g, dm, z in zip(i0, d, special.zeta(2.0, c1).tolist())]
        k_ss = pref * (b / sigma) ** 2 * (i0[2] - 2.0 * i0[1] + i0[0])
        k_sb = pref / sigma * (i0[1] - i0[0] - (i1[2] - 2.0 * i1[1] + i1[0]))
        k_bb = pref / b**2 * (
            i0[0] + 2.0 * (i1[0] - i1[1]) + i2[0] - 2.0 * i2[1] + i2[2]
        )
        kmat = np.array([[k_ss, k_sb], [k_sb, k_bb]])
        # integral of grad u f^(1+alpha)
        h_ss = pref * (-(b / sigma**2) * (i0[1] - i0[0]) - (b / sigma) ** 2 * i0[1])
        h_sb = pref / sigma * (i0[1] - i0[0] + i1[1])
        h_bb = pref / b**2 * (-i0[0] - i2[1])
        hmat = np.array([[h_ss, h_sb], [h_sb, h_bb]])
        return xi, jvec, kmat, hmat + beta * kmat

EXPONENTIAL = Exponential()
WEIBULL = Weibull()

_FAMILIES = {
    "exp": EXPONENTIAL,
    "exponential": EXPONENTIAL,
    "weibull": WEIBULL,
}


def get_family(name: str) -> ParametricFamily:
    try:
        return _FAMILIES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; available: exp, weibull"
        ) from None


@dataclass(frozen=True)
class FamilySpec:
    """A serializable (family id, parameter vector) pair used by synthetic
    designs and experiment configs."""

    family: str
    theta: tuple[float, ...]

    def resolve(self) -> tuple[ParametricFamily, np.ndarray]:
        fam = get_family(self.family)
        return fam, fam.validate(self.theta)

    def label(self) -> str:
        fam, theta = self.resolve()
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(fam.param_names, theta))
        return f"{fam.family_id}({inner})"


# -- module-level operations ----------------------------------------------


def mdpde_psi(family: ParametricFamily, theta, alpha: float, x) -> np.ndarray:
    """Divergence estimating function jvec(theta) - u(x) f(x)^alpha.

    Bounded in x for alpha > 0; reduces to -u(x) at alpha = 0.  Scalar x
    yields shape (p,), array x yields (len(x), p).  theta and x are validated
    once; log f and u come from one pass over x and jvec from the closed forms
    without the kmat terms.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    scalar = np.ndim(x) == 0
    theta = family.validate(theta)
    x = family._check_x(np.atleast_1d(np.asarray(x, dtype=float)))
    logf, u, _ = family._pointwise(theta, x, 1)
    if alpha == 0.0:
        out = -u
    else:
        jvec = family._integrals(theta, alpha, False)[1]
        out = jvec[None, :] - u * np.exp(alpha * logf)[:, None]
    return out[0] if scalar else out


def lambda_model(family: ParametricFamily, theta, alpha: float) -> np.ndarray:
    """Model-based sensitivity matrix of the divergence estimating function.

    Differentiating psi_alpha under the model integral collapses to the
    alpha-weighted information matrix kmat(theta): the grad-u terms from the
    two pieces of psi cancel and (1+alpha) kmat - alpha kmat remains.
    """
    lam = family.weighted_integrals(theta, alpha).kmat
    if not np.all(np.isfinite(lam)):
        raise ValueError("sensitivity matrix has non-finite entries")
    return lam
