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
quadrature.  Outside the solver, every result built on them (the public
weighted_integrals, lambda_model and mdpde_psi, the fit's Lambda and psi,
influence.sigma_model) takes them from one checked call,
:func:`_closed_forms`, which raises one ValueError where they overflow or are
not finite.

The Weibull's fused pass, the evaluation of its trajectories at alpha > 0,
gives the objective H = xi - (1 + alpha)/alpha sum_i v_i + 1/alpha, the
estimating equation g = jvec - sum_i m_i u_i f_i^alpha and its exact Jacobian
from one reduction weighted by v_i = m_i f_i^alpha, of 1, w - 1, t (w - 1),
t w, t^2 w, (w - 1)^2, t (w - 1)^2, (t (w - 1))^2 with t = log x - log sigma
and w = e^{b t}; it writes rows 1-7 with ``out=`` ufuncs into an (8, n)
buffer that ``_prepare`` allocates once per fit.  The exponential, a 1-D root
at every alpha, keeps only the reduction of its Newton steps, the sums of v,
v r and v r^2 with r = x / mean, so that only r carries the time unit
(``Exponential._sums``, which keeps no buffer).  log f and u take one pass of
their own (``_pointwise``, t formed as in the fused pass), which logpdf,
score, mdpde_psi, the fit's sandwich (:func:`_psi`) and the end of the
Weibull's alpha = 0 root share.
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

    def logpdf(self, theta, x) -> np.ndarray:
        return self._checked(theta, x, 0)

    def score(self, theta, x) -> np.ndarray:
        """Gradient of log f at each x; shape (len(x), p)."""
        return self._checked(theta, x, 1)

    def weighted_integrals(self, theta, alpha: float) -> WeightedIntegrals:
        """Closed-form (xi, jvec, kmat); ValueError where they are not finite."""
        xi, jvec, kmat = _closed_forms(self, self.validate(theta), validate_alpha(alpha))
        return WeightedIntegrals(xi, np.array(jvec), np.array(kmat))

    # -- subclass surface -------------------------------------------------
    def sample(self, theta, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    # The closed forms below take theta as a sequence of p scalars and do
    # their scalar arithmetic in the type they are given.  The solver and the
    # public integrals pass Python floats (theta.tolist()), whose arithmetic
    # costs a fraction of numpy scalars' but raises ArithmeticError
    # (OverflowError, ZeroDivisionError) where numpy returns inf or NaN; the
    # solver counts those as rejected trial points, and _closed_forms turns
    # them into ValueError.
    def _pointwise(self, theta, x: np.ndarray):
        """(log f, u) at x from one pass, for theta and x already validated,
        u of shape (..., p).  logpdf, score and psi call this."""
        raise NotImplementedError

    def _integrals(self, theta, alpha: float):
        """(xi, jvec, kmat, djvec), matrices as tuples of rows, for an already
        validated theta, where djvec = d jvec / d theta = integral of grad u
        f^(1+alpha) plus (1+alpha) kmat (None for a 1-D root's family)."""
        raise NotImplementedError

    def _prepare(self, x: np.ndarray):
        """Per-fit state of the solver's passes at the validated points x (here
        the points themselves).  A buffer in it, which every pass overwrites,
        belongs to one fit and is never shared between fits or memoised on a sample."""
        return x

    def _checked(self, theta, x, order: int) -> np.ndarray:
        """log f (order 0) or u (order 1) of the one pass, for logpdf and score;
        ValueError, as from mdpde_psi, where a value overflows at an extreme theta."""
        theta = self.validate(theta)
        with np.errstate(all="ignore"):
            values = self._pointwise(theta, self._check_x(x))[order]
        if not np.isfinite(values).all():
            raise ValueError(f"{self.family_id} {('log-density', 'score')[order]} is not finite at theta={theta.tolist()}")
        return values

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.param_names}>"


class Exponential(ParametricFamily):
    """Exponential lifetimes parameterized by the mean."""

    family_id = "exponential"
    param_names = ("mean",)

    def sample(self, theta, rng, size):
        (m,) = self.validate(theta)
        return rng.exponential(m, size)

    def _pointwise(self, theta, x):
        (m,) = theta
        r = x / m
        return -np.log(m) - r, ((r - 1.0) / m)[..., None]

    def _integrals(self, theta, alpha):
        (m,) = theta
        beta = 1.0 + alpha
        xi = m**-alpha / beta
        jvec = (-alpha * m ** -(alpha + 1.0) / beta**2,)
        k = (1.0 + alpha**2) * beta**-3 * m ** -(alpha + 2.0)
        return xi, jvec, ((k,),), None

    @staticmethod
    def _sums(m, alpha, x, mass):
        """(sum v r^k for k = 0, 1, 2), r = x / m and v = mass e^(-alpha r), each
        exponential pass's reduction; v r^2 as (v r) r adds 0 where v underflows."""
        r = x / m
        v = mass * np.exp(-alpha * r) if alpha else mass
        vr = v * r
        return float(v.sum()), float(vr.sum()), float(vr @ r)

class Weibull(ParametricFamily):
    """Weibull lifetimes with scale sigma and shape b: F(x) = 1 - exp(-(x/sigma)^b)."""

    family_id = "weibull"
    param_names = ("scale", "shape")
    # bench/tracing.py wraps these three in Weibull's own namespace
    logpdf, score, weighted_integrals = ParametricFamily.logpdf, ParametricFamily.score, ParametricFamily.weighted_integrals

    def sample(self, theta, rng, size):
        sigma, b = self.validate(theta)
        return sigma * rng.weibull(b, size)

    def _pointwise(self, theta, x):
        sigma, b = theta
        r, inverse_b = b / sigma, 1.0 / b  # on floats, ZeroDivisionError where sigma or b underflows
        t = np.log(x) - math.log(sigma)
        w = np.exp(b * t)
        u = np.empty(t.shape + (2,))
        u[..., 0] = r * (w - 1.0)
        u[..., 1] = inverse_b + t * (1.0 - w)
        return math.log(b) - math.log(sigma) + (b - 1.0) * t - w, u

    def _integrals(self, theta, alpha):
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
        # log x, the pass buffer of the eight reduction rows (row 0 stays 1)
        # and views of rows 1-7, which each pass overwrites
        rows = np.zeros((8,) + x.shape)
        rows[0] = 1.0
        return (np.log(x), rows, *rows[1:])

    def _equation(self, theta, alpha, prepared, mass):
        """The fused pass (module docstring) at alpha > 0 and the points that
        ``_prepare`` turned into ``prepared``, with masses ``mass``: (H, g, J_theta
        by rows, s0 = sum_i m_i f_i^alpha), as Python floats for a float theta."""
        logx, rows, wm1, twm1, tw, t2w, wm1_2, twm1_wm1, twm1_2 = prepared
        sigma, b = theta
        t = logx - math.log(sigma)
        w = np.exp(b * t)
        # f^alpha = (b / sigma)^alpha e^(alpha ((b - 1) t - w))
        v = mass * np.exp(alpha * ((b - 1.0) * t - w))
        pref = (b / sigma) ** alpha
        xi, (j_s, j_b), _, ((d_ss, d_sb), (_, d_bb)) = self._integrals(theta, alpha)
        np.subtract(w, 1.0, out=wm1)
        np.multiply(t, w, out=tw)
        np.multiply(t, wm1, out=twm1)
        np.multiply(t, tw, out=t2w)
        np.multiply(wm1, wm1, out=wm1_2)
        np.multiply(twm1, wm1, out=twm1_wm1)
        np.multiply(twm1, twm1, out=twm1_2)
        s0, s1, s2, s3, s4, s5, s6, s7 = [pref * s for s in (rows @ v).tolist()]
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


def _closed_forms(family: ParametricFamily, theta: np.ndarray, alpha: float) -> tuple:
    """(xi, jvec, kmat), as floats and tuples of rows, at a validated theta
    array and alpha from one closed-form call: the one path from the
    integrals to the public results.  An ArithmeticError there, or a
    non-finite xi, jvec or kmat, raises one ValueError."""
    try:
        xi, jvec, kmat, _ = family._integrals(theta.tolist(), alpha)
        finite = all(map(math.isfinite, (xi, *jvec, *(v for row in kmat for v in row))))
    except ArithmeticError:
        finite = False
    if not finite:
        raise ValueError(f"weighted integrals are not finite at theta={theta.tolist()}")
    return xi, jvec, kmat


def mdpde_psi(family: ParametricFamily, theta, alpha: float, x) -> np.ndarray:
    """Divergence estimating function jvec(theta) - u(x) f(x)^alpha.

    Bounded in x for alpha > 0; reduces to -u(x) at alpha = 0.  Scalar x
    yields shape (p,), array x yields (len(x), p).  alpha, theta and x are
    validated here, then :func:`_psi`, which the fit's sandwich shares,
    evaluates.  The closed forms raise ValueError where they are not finite
    (alpha > 0; jvec vanishes at alpha = 0), and so does a non-finite
    result (overflow at an extreme theta); that check is this function's own.
    """
    alpha = validate_alpha(alpha)
    scalar = np.ndim(x) == 0
    theta = family.validate(theta)
    x = family._check_x(np.atleast_1d(np.asarray(x, dtype=float)))
    jvec = _closed_forms(family, theta, alpha)[1] if alpha else None
    with np.errstate(all="ignore"):
        out = _psi(family, theta, alpha, x, jvec)
    if not np.isfinite(out).all():
        raise ValueError(f"mdpde_psi is not finite at theta={theta.tolist()}")
    return out[0] if scalar else out


def _sample_psi(family: ParametricFamily, theta: np.ndarray, alpha: float):
    """(Lambda, psi) of a fit's sandwich at its converged theta, a validated
    array, from one closed-form call: psi(x, theta) = mdpde_psi(family,
    theta, alpha, x) with that call's jvec.  varest.u_hat evaluates it at
    the sample's event times only, which the fit's check of its weight
    points already found positive, and checks its values."""
    _, jvec, lam = _closed_forms(family, theta, alpha)
    return np.array(lam), lambda x, theta: _psi(family, theta, alpha, x, jvec)


def _psi(family: ParametricFamily, theta: np.ndarray, alpha: float, x: np.ndarray, jvec) -> np.ndarray:
    """The one evaluation of psi, at validated theta, alpha and x and with
    the closed-form jvec there: u, and log f where alpha > 0, from one pass
    over x, psi formed in place in their arrays.  The values are not
    checked here: each caller checks them once (mdpde_psi itself, the fit's
    sandwich in varest.u_hat).  The caller sets a quiet floating-point
    state."""
    logf, out = family._pointwise(theta, x)
    if alpha == 0.0:
        np.negative(out, out=out)
    else:
        logf *= alpha
        out *= np.exp(logf, out=logf)[:, None]
        np.subtract(jvec, out, out=out)
    return out


def lambda_model(family: ParametricFamily, theta, alpha: float) -> np.ndarray:
    """Model-based sensitivity matrix of the divergence estimating function.

    Differentiating psi_alpha under the model integral collapses to the
    alpha-weighted information matrix kmat(theta): the grad-u terms from the
    two pieces of psi cancel and (1+alpha) kmat - alpha kmat remains.  The
    closed forms raise ValueError where they are not finite.
    """
    return np.array(_closed_forms(family, family.validate(theta), validate_alpha(alpha))[2])
