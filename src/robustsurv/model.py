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
jvec in theta.  The closed forms are the only evaluation path; the test
suite checks them against adaptive quadrature.

The solver's fused pass gives the objective H, the estimating equation g =
jvec - sum_i m_i u_i f_i^alpha and its exact Jacobian from one reduction,
weighted by v_i = m_i f_i^alpha, of the rows 1, x, x^2 (exponential) or, with
t = log(x / sigma) and w = e^{b t}, 1, w - 1, t (w - 1), t w, t^2 w,
(w - 1)^2, t (w - 1)^2, (t (w - 1))^2 (Weibull): H = xi - (1 + alpha)/alpha
sum_i v_i + 1/alpha, or -sum_i m_i log f_i at alpha = 0.  log f and u take
one pass of their own.
"""

from __future__ import annotations

import math
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
    "validate_alpha",
    "mdpde_psi",
    "lambda_model",
]


class WeightedIntegrals(NamedTuple):
    xi: float
    jvec: np.ndarray
    kmat: np.ndarray


def validate_alpha(alpha) -> float:
    """alpha as a float; ValueError unless it is finite and nonnegative."""
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha!r}")
    return alpha


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
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.ndim != 1:
            raise ValueError("theta must be a 1-D parameter vector")
        if theta.shape[0] != self.dim:
            raise ValueError(
                f"{self.family_id} expects {self.dim} parameter(s), got {theta.shape[0]}"
            )
        if not all(math.isfinite(v) and v > 0.0 for v in theta.tolist()):
            raise ValueError(f"invalid {self.family_id} parameter {theta!r}")
        return theta

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not (np.isfinite(x).all() and (x > 0.0).all()):
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
    # their scalar arithmetic in the type they are given.  The solver and the
    # public integrals pass Python floats (theta.tolist()), whose arithmetic
    # costs a fraction of numpy scalars' but raises ArithmeticError
    # (OverflowError, ZeroDivisionError) where numpy returns inf or NaN; the
    # solver counts those as rejected trial points, and _float_integrals
    # turns them into ValueError.
    def _pointwise(self, theta, x: np.ndarray, order: int):
        """(log f, u) at x from one pass, for theta and x already validated;
        u (shape (..., p)) is None at order 0.  The public log f, score and
        mdpde_psi, and the solver's objective, call this directly."""
        raise NotImplementedError

    def _integrals(self, theta, alpha: float, jacobian: bool):
        """(xi, jvec, kmat, djvec), matrices as tuples of rows, for an already
        validated theta, where djvec = d jvec / d theta = integral of grad u
        f^(1+alpha) plus (1+alpha) kmat.  Without ``jacobian`` only xi and
        jvec are formed (kmat and djvec are None), skipping the trigamma terms."""
        raise NotImplementedError

    def _equation(self, theta, alpha: float, prepared, mass: np.ndarray):
        """The fused pass (module docstring) at the points that ``_prepare``
        turned into ``prepared``, with masses ``mass``: (H, g, J_theta), J by
        rows, as Python floats for a Python-float theta."""
        raise NotImplementedError

    def _float_integrals(self, theta: np.ndarray, alpha: float, jacobian: bool):
        """_integrals on the floats of a validated theta; an ArithmeticError
        there is raised as a ValueError chained to it."""
        try:
            return self._integrals(theta.tolist(), alpha, jacobian)
        except ArithmeticError as exc:
            raise ValueError(f"weighted integrals overflow at theta={theta.tolist()}") from exc

    def _validated_integrals(self, theta, alpha: float) -> WeightedIntegrals:
        xi, jvec, kmat, _ = self._float_integrals(self.validate(theta), validate_alpha(alpha), True)
        return WeightedIntegrals(xi, np.array(jvec), np.array(kmat))

    # -- generic paths ----------------------------------------------------
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
        return logf, u

    def _integrals(self, theta, alpha, jacobian):
        (m,) = theta
        beta = 1.0 + alpha
        xi = m**-alpha / beta
        jvec = (-alpha * m ** -(alpha + 1.0) / beta**2,)
        if not jacobian:
            return xi, jvec, None, None
        k = (1.0 + alpha**2) * beta**-3 * m ** -(alpha + 2.0)
        # integral of grad u f^(1+alpha), grad u = (m - 2x) / m^3
        h = (alpha - 1.0) * m ** -(alpha + 2.0) / beta**2
        return xi, jvec, ((k,),), ((h + beta * k,),)

    def _prepare(self, x):
        return np.stack((np.ones_like(x), x, x * x))

    def _equation(self, theta, alpha, rows, mass):
        (m,) = theta
        if alpha == 0.0:
            # jvec and its theta-derivative vanish identically at alpha = 0
            v, pref, j, dj = mass, 1.0, 0.0, 0.0
        else:
            # f^alpha = m^-alpha e^(-alpha x / m)
            v = mass * np.exp((-alpha / m) * rows[1])
            pref = m**-alpha
            xi, (j,), _, ((dj,),) = self._integrals(theta, alpha, True)
        s0, s1, s2 = (pref * s for s in (rows @ v).tolist())
        if alpha == 0.0:
            h = math.log(m) * s0 + s1 / m  # -log f = log m + x / m
        else:
            h = xi - (1.0 + alpha) / alpha * s0 + 1.0 / alpha
        # u = (x - m) / m^2 and grad u = (m - 2x) / m^3, summed with v
        m2 = m * m
        jac = dj - (m * s0 - 2.0 * s1) / (m2 * m) - alpha * (s2 - 2.0 * m * s1 + m2 * s0) / (m2 * m2)
        return h, (j - (s1 - m * s0) / m2,), ((jac,),)

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
            return logf, None
        u = np.empty(logx.shape + (2,))
        u[..., 0] = (b / sigma) * (w - 1.0)
        u[..., 1] = 1.0 / b + logx * (1.0 - w)
        return logf, u

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
        jvec = (j_scale, j_shape)
        if not jacobian:
            return xi, jvec, None, None

        i2 = [g * (dm * dm + z) for g, dm, z in zip(i0, d, special.zeta(2.0, c1).tolist())]
        k_ss = pref * (b / sigma) ** 2 * (i0[2] - 2.0 * i0[1] + i0[0])
        k_sb = pref / sigma * (i0[1] - i0[0] - (i1[2] - 2.0 * i1[1] + i1[0]))
        k_bb = pref / b**2 * (
            i0[0] + 2.0 * (i1[0] - i1[1]) + i2[0] - 2.0 * i2[1] + i2[2]
        )
        kmat = ((k_ss, k_sb), (k_sb, k_bb))
        # integral of grad u f^(1+alpha)
        h_ss = pref * (-(b / sigma**2) * (i0[1] - i0[0]) - (b / sigma) ** 2 * i0[1])
        h_sb = pref / sigma * (i0[1] - i0[0] + i1[1])
        h_bb = pref / b**2 * (-i0[0] - i2[1])
        d_sb = h_sb + beta * k_sb
        return xi, jvec, kmat, ((h_ss + beta * k_ss, d_sb), (d_sb, h_bb + beta * k_bb))

    def _prepare(self, x):
        return np.log(x), np.ones_like(x)

    def _equation(self, theta, alpha, prepared, mass):
        logx, ones = prepared
        sigma, b = theta
        t = logx - math.log(sigma)
        w = np.exp(b * t)
        if alpha == 0.0:
            # jvec and its theta-derivative vanish identically at alpha = 0
            v, pref = mass, 1.0
            j_s = j_b = d_ss = d_sb = d_bb = 0.0
        else:
            # f^alpha = (b / sigma)^alpha e^(alpha ((b - 1) t - w))
            v = mass * np.exp(alpha * ((b - 1.0) * t - w))
            pref = (b / sigma) ** alpha
            xi, (j_s, j_b), _, ((d_ss, d_sb), (_, d_bb)) = self._integrals(theta, alpha, True)
        wm1, tw = w - 1.0, t * w
        twm1 = t * wm1
        rows = np.array((ones, wm1, twm1, tw, t * tw, wm1 * wm1, twm1 * wm1, twm1 * twm1))
        s0, s1, s2, s3, s4, s5, s6, s7 = (pref * s for s in (rows @ v).tolist())
        if alpha == 0.0:
            # log f = log(b / sigma) + (b - 1) t - w, with sum_i m_i t_i = s3 - s2
            h = -(math.log(b / sigma) * s0 + (b - 1.0) * (s3 - s2) - s1 - s0)
        else:
            h = xi - (1.0 + alpha) / alpha * s0 + 1.0 / alpha
        # u = (r (w - 1), 1/b - t (w - 1)) with r = b / sigma; grad u has
        # entries -(r / sigma)(w - 1) - r^2 w, (w - 1 + b t w) / sigma and
        # -1/b^2 - t^2 w
        r, bb = b / sigma, b * b
        j_sb = d_sb - (s1 + b * s3) / sigma - alpha * (s1 / sigma - r * s6)
        return h, (j_s - r * s1, j_b - s0 / b + s2), (
            (d_ss + (r / sigma) * s1 + r * r * (s1 + s0 - alpha * s5), j_sb),
            (j_sb, d_bb + s0 / bb + s4 - alpha * (s0 / bb - 2.0 * s2 / b + s7)),
        )

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
    without the kmat terms.  A non-finite result (overflow at an extreme
    theta) raises ValueError, as the closed forms do.
    """
    validate_alpha(alpha)
    scalar = np.ndim(x) == 0
    theta = family.validate(theta)
    x = family._check_x(np.atleast_1d(np.asarray(x, dtype=float)))
    with np.errstate(all="ignore"):
        logf, u = family._pointwise(theta, x, 1)
        if alpha == 0.0:
            out = -u
        else:
            jvec = np.array(family._float_integrals(theta, alpha, False)[1])
            out = jvec - u * np.exp(alpha * logf)[:, None]
    if not np.isfinite(out).all():
        raise ValueError(f"mdpde_psi is not finite at theta={theta.tolist()}")
    return out[0] if scalar else out


def lambda_model(family: ParametricFamily, theta, alpha: float) -> np.ndarray:
    """Model-based sensitivity matrix of the divergence estimating function.

    Differentiating psi_alpha under the model integral collapses to the
    alpha-weighted information matrix kmat(theta): the grad-u terms from the
    two pieces of psi cancel and (1+alpha) kmat - alpha kmat remains.  An
    overflow in the closed forms or a non-finite matrix raises ValueError.
    """
    try:
        lam = family.weighted_integrals(theta, alpha).kmat
    except ValueError as exc:
        if not isinstance(exc.__cause__, ArithmeticError):
            raise
        lam = None
    if lam is None or not all(math.isfinite(v) for v in lam.ravel().tolist()):
        raise ValueError("sensitivity matrix has non-finite entries")
    return lam
