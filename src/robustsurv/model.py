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
digamma / trigamma expressions, evaluated on Python floats in straight-line
code.  The same integrals give the derivative of jvec in theta.  The closed
forms are the only evaluation path; the tests check them against adaptive
quadrature.

The solver's fused pass gives the objective H, the estimating equation g =
jvec - sum_i m_i u_i f_i^alpha and its exact Jacobian from one reduction,
weighted by v_i = m_i f_i^alpha, of the rows 1, x, x^2 (exponential) or, with
t = log(x / sigma) and w = e^{b t}, 1, w - 1, t (w - 1), t w, t^2 w,
(w - 1)^2, t (w - 1)^2, (t (w - 1))^2 (Weibull): H = xi - (1 + alpha)/alpha
sum_i v_i + 1/alpha, or -sum_i m_i log f_i at alpha = 0.  The Weibull pass
writes its rows with ``out=`` ufuncs into an (8, n) buffer that ``_prepare``
allocates once per fit, row 0 held at 1; rows 5-7 enter only times alpha, so
at alpha = 0 they stay at the zeros that ``_prepare`` wrote, and the pass
skips their three products.  log f and u take one pass of their own, which
mdpde_psi and the fit's sandwich share (:func:`_psi`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


_X_DOMAIN = "evaluation points must be positive and finite"


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


def _digamma_trigamma(x: float) -> tuple[float, float]:
    """(digamma(x), trigamma(x)) for a float x > 0: the recurrence up to
    x >= 10, then the asymptotic series (Abramowitz & Stegun 6.3.18 and
    6.4.12), whose first omitted terms are below 1e-15 relative there."""
    digamma = trigamma = 0.0
    while x < 10.0:
        digamma -= 1.0 / x
        trigamma += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    digamma += math.log(x) - 0.5 / x - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (
        1 / 240 - r * (1 / 132 - r * 691 / 32760)))))
    trigamma += (1.0 + 0.5 / x + r * (1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (1 / 30 - r * (
        5 / 66 - r * (691 / 2730 - r * 7 / 6))))))) / x
    return digamma, trigamma


class ParametricFamily:
    """A positive lifetime model with density, score and weighted integrals.

    Subclasses provide the closed forms; everything data-facing (sampling,
    log-density, score) is exposed here so the fitting and variance layers
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
        if not all(0.0 < v < math.inf for v in theta.tolist()):  # positive and finite
            raise ValueError(f"invalid {self.family_id} parameter {theta!r}")
        return theta

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not (np.isfinite(x).all() and (x > 0.0).all()):
            raise ValueError(_X_DOMAIN)
        return x

    # -- subclass surface -------------------------------------------------
    def logpdf(self, theta, x) -> np.ndarray:
        raise NotImplementedError

    def score(self, theta, x) -> np.ndarray:
        """Gradient of log f at each x; shape (len(x), p)."""
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
        """(log f, u) at x from one pass, for theta and x already validated,
        u of shape (..., p): log f alone at order 0, u alone at order 1 (the
        other None), both at order 2.  log f, score and psi call this."""
        raise NotImplementedError

    def _integrals(self, theta, alpha: float, jacobian: bool):
        """(xi, jvec, kmat, djvec), matrices as tuples of rows, for an already
        validated theta, where djvec = d jvec / d theta = integral of grad u
        f^(1+alpha) plus (1+alpha) kmat.  Without ``jacobian`` only xi and
        jvec are formed (kmat and djvec are None), skipping the trigamma terms."""
        raise NotImplementedError

    def _prepare(self, x: np.ndarray):
        """Per-fit state of the fused pass at the validated points x.  It may
        hold a buffer that every pass overwrites, so it belongs to one fit and
        is never shared between fits or memoised on a sample."""
        raise NotImplementedError

    def _equation(self, theta, alpha: float, prepared, mass: np.ndarray):
        """The fused pass (module docstring) at the points that ``_prepare``
        turned into ``prepared``, with masses ``mass``: (H, g, J_theta, s0),
        J by rows and s0 = sum_i m_i f_i^alpha, as Python floats for a
        Python-float theta."""
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

    def _checked(self, theta, x, order: int) -> np.ndarray:
        """log f (order 0) or u (order 1), for logpdf and score; ValueError, as
        from mdpde_psi, where a value overflows at an extreme theta."""
        theta = self.validate(theta)
        with np.errstate(all="ignore"):
            values = self._pointwise(theta, self._check_x(x), order)[order]
        if not np.isfinite(values).all():
            raise ValueError(f"{self.family_id} {('log-density', 'score')[order]} is not finite at theta={theta.tolist()}")
        return values

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.param_names}>"


class Exponential(ParametricFamily):
    """Exponential lifetimes parameterized by the mean."""

    family_id = "exponential"
    param_names = ("mean",)

    def logpdf(self, theta, x):
        return self._checked(theta, x, 0)

    def score(self, theta, x):
        return self._checked(theta, x, 1)

    def sample(self, theta, rng, size):
        (m,) = self.validate(theta)
        return rng.exponential(m, size)

    def weighted_integrals(self, theta, alpha):
        return self._validated_integrals(theta, alpha)

    def _pointwise(self, theta, x, order):
        (m,) = theta
        logf = -np.log(m) - x / m if order != 1 else None
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
        return h, (j - (s1 - m * s0) / m2,), ((jac,),), s0

class Weibull(ParametricFamily):
    """Weibull lifetimes with scale sigma and shape b: F(x) = 1 - exp(-(x/sigma)^b)."""

    family_id = "weibull"
    param_names = ("scale", "shape")

    def logpdf(self, theta, x):
        return self._checked(theta, x, 0)

    def score(self, theta, x):
        return self._checked(theta, x, 1)

    def sample(self, theta, rng, size):
        sigma, b = self.validate(theta)
        return sigma * rng.weibull(b, size)

    def weighted_integrals(self, theta, alpha):
        return self._validated_integrals(theta, alpha)

    def _pointwise(self, theta, x, order):
        sigma, b = theta
        logx = np.log(x / sigma)
        w = np.exp(b * logx)
        logf = np.log(b / sigma) + (b - 1.0) * logx - w if order != 1 else None
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

        # iKm = integral of w^(c - 1 + m) (log w)^k e^{-beta w} dw = Gamma(c +
        # m) beta^-(c + m) (1, d_m, d_m^2 + trigamma(c + m)) for k = 0, 1, 2
        # and m = 0, 1, 2, with c = kappa + 1 and d_m = digamma(c + m) - log
        # beta, in straight-line float code.  Gamma is taken up from c (a
        # rounded c + m would cost digamma(c + m) times its rounding);
        # digamma and trigamma down from c + 2, by steps -1/x and +1/x^2 that
        # share the sign of the sum, so no digits cancel.
        c = kappa + 1.0
        c1 = c + 1.0
        g0 = math.gamma(c)
        g1 = g0 * c
        p2, t2 = _digamma_trigamma(c + 2.0)
        p1 = p2 - 1.0 / c1
        log_beta = math.log(beta)
        i00, i01, i02 = g0 * beta**-c, g1 * beta**-c1, g1 * c1 * beta ** -(c + 2.0)
        d0, d1, d2 = p1 - 1.0 / c - log_beta, p1 - log_beta, p2 - log_beta
        i10, i11, i12 = i00 * d0, i01 * d1, i02 * d2
        t1 = t2 + c1**-2
        t0 = t1 + c**-2  # formed here, like t1, so that a tiny c overflows on either path

        r = b / sigma
        pref = r**alpha
        xi = pref * i00
        i01_00 = i01 - i00
        jvec = (pref * r * i01_00, pref / b * (i00 + i10 - i11))
        if not jacobian:
            return xi, jvec, None, None

        i20, i21, i22 = i00 * (d0 * d0 + t0), i01 * (d1 * d1 + t1), i02 * (d2 * d2 + t2)
        k_ss = pref * r**2 * (i02 - 2.0 * i01 + i00)
        pref_s = pref / sigma
        k_sb = pref_s * (i01_00 - (i12 - 2.0 * i11 + i10))
        pref_bb = pref / b**2
        k_bb = pref_bb * (i00 + 2.0 * (i10 - i11) + i20 - 2.0 * i21 + i22)
        # integral of grad u f^(1+alpha)
        h_ss = pref * (-(b / sigma**2) * i01_00 - r**2 * i01)
        d_sb = pref_s * (i01_00 + i11) + beta * k_sb
        return xi, jvec, ((k_ss, k_sb), (k_sb, k_bb)), (
            (h_ss + beta * k_ss, d_sb), (d_sb, pref_bb * (-i00 - i21) + beta * k_bb))

    def _prepare(self, x):
        # log x, the pass buffer of the eight reduction rows (row 0 stays 1,
        # and the alpha-only rows 5-7 stay 0 for an alpha = 0 equation) and
        # views of rows 1-7, which each pass overwrites
        rows = np.zeros((8,) + x.shape)
        rows[0] = 1.0
        return (np.log(x), rows, *rows[1:])

    def _equation(self, theta, alpha, prepared, mass):
        logx, rows, wm1, twm1, tw, t2w, wm1_2, twm1_wm1, twm1_2 = prepared
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
        np.subtract(w, 1.0, out=wm1)
        np.multiply(t, w, out=tw)
        np.multiply(t, wm1, out=twm1)
        np.multiply(t, tw, out=t2w)
        if alpha != 0.0:  # rows 5-7 enter only times alpha
            np.multiply(wm1, wm1, out=wm1_2)
            np.multiply(twm1, wm1, out=twm1_wm1)
            np.multiply(twm1, twm1, out=twm1_2)
        s0, s1, s2, s3, s4, s5, s6, s7 = [pref * s for s in (rows @ v).tolist()]
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
        ), s0

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
    designs and experiment configs; resolved and validated once, at
    construction, so an invalid pair raises ValueError there."""

    family: str
    theta: tuple[float, ...]

    def __post_init__(self):
        fam = get_family(self.family)
        theta = fam.validate(np.array(self.theta, dtype=float))
        theta.setflags(write=False)
        object.__setattr__(self, "_resolved", (fam, theta))

    def resolve(self) -> tuple[ParametricFamily, np.ndarray]:
        """The family and its validated, read-only parameter vector."""
        return self._resolved

    def label(self) -> str:
        fam, theta = self.resolve()
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(fam.param_names, theta))
        return f"{fam.family_id}({inner})"


# -- module-level operations ----------------------------------------------


def mdpde_psi(family: ParametricFamily, theta, alpha: float, x) -> np.ndarray:
    """Divergence estimating function jvec(theta) - u(x) f(x)^alpha.

    Bounded in x for alpha > 0; reduces to -u(x) at alpha = 0.  Scalar x
    yields shape (p,), array x yields (len(x), p).  alpha, theta and x are
    validated here, then :func:`_psi`, which the fit's sandwich shares,
    evaluates.  A non-finite result (overflow at an extreme theta) raises
    ValueError, as the closed forms do.
    """
    validate_alpha(alpha)
    scalar = np.ndim(x) == 0
    theta = family.validate(theta)
    x = family._check_x(np.atleast_1d(np.asarray(x, dtype=float)))
    jvec = family._float_integrals(theta, alpha, False)[1] if alpha else None
    with np.errstate(all="ignore"):
        out = _psi(family, theta, alpha, x, jvec)
    return out[0] if scalar else out


def _sample_psi(family: ParametricFamily, theta: np.ndarray, alpha: float):
    """(Lambda, psi) of a fit's sandwich at its converged theta, a validated
    array, from one closed-form call: psi(z, theta) = mdpde_psi(family,
    theta, alpha, z) with that call's jvec.  z is a CensoredSample's sorted,
    finite, nonnegative z, so z[0] > 0 is the whole check of the points (the
    same ValueError), and _psi checks the values."""
    lam, jvec = _lambda_jvec(family, theta, alpha)

    def psi(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
        if not z[0] > 0.0:
            raise ValueError(_X_DOMAIN)
        return _psi(family, theta, alpha, z, jvec)

    return lam, psi


def _psi(family: ParametricFamily, theta: np.ndarray, alpha: float, x: np.ndarray, jvec) -> np.ndarray:
    """The one evaluation of psi, at validated theta, alpha and x and with
    the closed-form jvec there: u, and log f where alpha > 0, from one pass
    over x, psi formed in place in their arrays; ValueError where a value is
    not finite.  The caller sets a quiet floating-point state."""
    logf, out = family._pointwise(theta, x, 2 if alpha else 1)
    if alpha == 0.0:
        np.negative(out, out=out)
    else:
        logf *= alpha
        out *= np.exp(logf, out=logf)[:, None]
        np.subtract(jvec, out, out=out)
    if not np.isfinite(out).all():
        raise ValueError(f"mdpde_psi is not finite at theta={theta.tolist()}")
    return out


def lambda_model(family: ParametricFamily, theta, alpha: float) -> np.ndarray:
    """Model-based sensitivity matrix of the divergence estimating function.

    Differentiating psi_alpha under the model integral collapses to the
    alpha-weighted information matrix kmat(theta): the grad-u terms from the
    two pieces of psi cancel and (1+alpha) kmat - alpha kmat remains.  An
    overflow in the closed forms or a non-finite matrix raises ValueError.
    """
    return _lambda_jvec(family, family.validate(theta), validate_alpha(alpha))[0]


def _lambda_jvec(family: ParametricFamily, theta: np.ndarray, alpha: float) -> tuple[np.ndarray, tuple]:
    """(kmat as an array, jvec) at a validated theta and alpha from one
    closed-form call; ValueError where kmat overflows or is not finite."""
    try:
        _, jvec, lam, _ = family._integrals(theta.tolist(), alpha, True)
    except ArithmeticError:
        lam = None
    if lam is None or not all(math.isfinite(v) for row in lam for v in row):
        raise ValueError("sensitivity matrix has non-finite entries")
    return np.array(lam), jvec
