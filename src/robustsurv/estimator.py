"""Divergence-based fitting from censored samples.

The estimator solves the product-limit-weighted estimating equation

    jvec_alpha(theta) - sum_i w_i u(z_i; theta) f(z_i; theta)^alpha = 0

with w_i the tail-completed product-limit masses, or equivalently minimizes
the weighted divergence objective.  alpha = 0 is the product-limit-weighted
likelihood (the approximate MLE), not the censored-data MLE; the two coincide
on uncensored data.

Every one-parameter equation takes one bracketed 1-D solve
(_bracketed_newton, tag "profile"): at alpha = 0 the Weibull shape solves a
decreasing profile equation (Farnum & Booth 1997, IEEE Trans. Reliab.
46:523), and its scale and the exponential mean follow in closed form; at
alpha > 0 the exponential mean solves k = theta^(1+alpha) g in y = log theta,
which reads the data only through r = z / theta, so the estimate follows any
change of time unit.  Every 1-D root ends on one evaluation (_root_end) that
gives its H, g and certificate together: the exponential's is relative to
k's terms in r, the Weibull's to the terms of g = -sum_i w_i u_i.

Weibull solver at alpha > 0: one start and at most two trajectories from it,
in log-parameter space (positivity for free), on the exact Jacobian

    J_theta = d jvec / d theta - sum_i w_i (grad u_i + alpha u_i u_i^T) f_i^alpha,

with d jvec / d theta from the family's closed-form integrals (Basu, Harris,
Hjort & Jones 1998, Biometrika 85:549, for the alpha-weighted information),
and J_eta = J_theta diag(theta) in the log coordinates eta.  The family's
fused pass, the trajectories' only evaluation, gives the objective H, g, J and
the data mass sum_i w_i f_i^alpha at a point at once; no trajectory makes it
twice at one point, and the start's pass serves both trajectories.  Both
trajectories run in one loop of straight-line float code (_trajectory), so
an iteration costs its pass and a few dozen float operations.  A solver
point is formed on floats too (J_eta by scalar products, |g| = sqrt(g0^2 +
g1^2)), and the pass fills the per-fit row buffer that the family's
_prepare allocated for this fit's equation, so it allocates no row array.

The default start (_hazard_start) is the exponential's product-limit median
over log 2, or the Weibull's log-log hazard line over the product-limit
support, fitted by centred least squares in closed form.
At a root one closed-form call gives the sandwich's Lambda (kmat) and
psi's jvec, and psi is evaluated once at the sample's event times, through
varest.covariance_estimate, inside the solve's quiet floating-point state;
the check of the weight points covers those times, and u_hat checks psi's
values there, the one finiteness check on the path.

Residual Newton runs first: it solves J_eta step = -g and accepts a step
that lowers |g|.  When it gives no root, descent Newton on H runs from the
same start: the eta-Hessian of H, (1 + alpha) times diag(theta) J_theta
diag(theta) + diag(theta * g), has its eigenvalues replaced by their
absolute values, in closed form for the 2 x 2 (|S| = (S^2 + |det S| I) /
(|l1| + |l2|), no LAPACK call), so each step points downhill, and the step
is backtracked to an Armijo decrease of H (Nocedal & Wright, Numerical
Optimization, 2nd ed., section 3.4).  At a root the diagonal term vanishes
and the step is Newton's.

Three rules keep the trajectories on genuine roots:

* Feasible start: a Weibull start shape is raised to at least
  1.5 alpha / (1 + alpha), above the alpha / (1 + alpha) where f^(1+alpha)
  stops being integrable.
* No root above its start: a trajectory has converged only if H at its end
  is no higher than at its start (within _FLAT_REL), since the absolute
  residual tolerance also holds as the scale runs off to infinity.
* Explicit-start fallback: if neither trajectory finds a root from an
  explicit FitConfig.start, the fit runs once more from the default start.

A trajectory is stopped as not converged when it drifts more than
_MAX_LOG_DRIFT (e^20) from its start in some log coordinate (a boundary
runaway) and, for residual Newton only, when an accepted step leaves |g|
above half its value five accepted steps earlier (_STALL_RATIO,
_STALL_STEPS): Newton converges q-quadratically near a regular root, so the
descent takes over sooner, while an Armijo descent need not lower |g|
steadily.

FitResult.message names the path of the estimate, "profile" for a 1-D root
(the exponential's only tag), else "newton" or "descent".  A converged end
where the density has vanished on every observation is no root: Newton's
hands over to the descent, and the descent's is tagged "descent-degenerate".
": no root at tol 1e-08" is appended when nothing converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import varest
from .data import CensoredSample
from .kmpl import RESIDUAL_MASS_FLAG, kmpl_fit
from .model import _X_DOMAIN, ParametricFamily, _sample_psi, lambda_model, validate_alpha

__all__ = ["FitConfig", "FitResult", "UnidentifiableSampleError", "fit", "fit_grid"]

# a Newton trajectory farther than this from its own start in some log
# coordinate (a factor e^20) is a boundary runaway; no accepted root on the
# acceptance designs lies anywhere near that far from its start
_MAX_LOG_DRIFT = 20.0
# a trajectory converges once |g| is within _TOL_GRADIENT (a 1-D root once
# g is, relative to its terms), and stops as not converged after _MAX_ITER
_TOL_GRADIENT = 1e-8
_MAX_ITER = 200
# Newton converges q-quadratically near a regular root (Nocedal & Wright,
# Numerical Optimization, 2nd ed., section 3.3), so a residual Newton
# trajectory whose |g| after an accepted step is above _STALL_RATIO times its
# value _STALL_STEPS accepted steps earlier is not converging and is stopped;
# converging trajectories on the acceptance designs and the contaminated
# Monte Carlo never come near that ratio
_STALL_STEPS = 5
_STALL_RATIO = 0.5
# a step longer than this in some log coordinate is shortened to it, and it
# is halved at most _MAX_HALVINGS times before the trajectory gives up
_MAX_LOG_STEP = 4.0
_MAX_HALVINGS = 15
# sufficient-decrease fraction of the descent line search (Armijo)
_ARMIJO = 1e-4
# near a root the objective is flat to rounding: a descent trial point whose
# objective rises by no more than this, relative, is accepted when it lowers
# the residual norm, and a trajectory's root may lie this much above its start
_FLAT_REL = 1e-13


class UnidentifiableSampleError(ValueError):
    """Fewer distinct event times than the family has parameters: no event
    for the exponential, fewer than two distinct event times for the Weibull."""


@dataclass(frozen=True)
class FitConfig:
    """Divergence tuning constant and optional solver start of one fit (a
    warm-started alpha sweep passes each estimate on as the next start; when
    it gives the Weibull no root, the fit retries from the default start, the
    log-log hazard line; the exponential's is the product-limit median over
    log 2; alpha = 0 needs none).  The tolerance 1e-8 and 200 iterations are fixed."""

    alpha: float = 0.0
    start: Sequence[float] | None = None

    def __post_init__(self):
        validate_alpha(self.alpha)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameter with its censoring-free sandwich covariance.

    sigma_hat estimates the covariance of sqrt(n)(theta_hat - theta0); the
    per-estimate covariance is sigma_hat / n.  message names the solver path
    of the estimate (see the module docstring) or why the fit failed.
    n_iter counts the iterations of every trajectory the fit ran: for
    "descent" that includes the failed first Newton trajectory from the same
    start, and after an explicit-start fallback both starts' trajectories;
    for "profile", the 1-D solve's passes (0 for the closed-form mean).
    """

    family: ParametricFamily
    n: int
    alpha: float
    theta_hat: np.ndarray
    objective_value: float
    eqn_residual: float
    converged: bool
    n_iter: int
    lambda_hat: np.ndarray
    c_hat: np.ndarray
    sigma_hat: np.ndarray
    lambda_cond: float
    residual_mass: float
    message: str = ""

    @classmethod
    def failed(cls, family: ParametricFamily, n: int, alpha: float, message: str) -> "FitResult":
        """Not-converged result: NaN estimate and matrices, infinite residual
        and condition number."""
        nan_matrix = np.full((family.dim, family.dim), np.nan)
        return cls(
            family=family,
            n=n,
            alpha=float(alpha),
            theta_hat=np.full(family.dim, np.nan),
            objective_value=np.nan,
            eqn_residual=np.inf,
            converged=False,
            n_iter=0,
            lambda_hat=nan_matrix,
            c_hat=nan_matrix.copy(),
            sigma_hat=nan_matrix.copy(),
            lambda_cond=np.inf,
            residual_mass=np.nan,
            message=message,
        )

    @property
    def se(self) -> np.ndarray:
        """Standard errors sqrt(diag(sigma_hat) / n)."""
        return np.sqrt(np.diag(self.sigma_hat) / self.n)

    def summary(self) -> str:
        lines = [
            f"family: {self.family.family_id}   n: {self.n}   alpha: {self.alpha:g}",
            f"converged: {self.converged} ({self.n_iter} iterations)"
            + (f"  [{self.message}]" if self.message else ""),
            f"objective: {self.objective_value:.10g}   eqn residual: {self.eqn_residual:.3e}",
        ]
        for name, value, se in zip(self.family.param_names, self.theta_hat, self.se):
            lines.append(f"  {name:<8s} {value:.6g}  (se {se:.4g})")
        lines.append(f"lambda cond: {self.lambda_cond:.4g}")
        if self.residual_mass > RESIDUAL_MASS_FLAG:
            lines.append(
                f"note: defective product-limit tail mass {self.residual_mass:.3f} "
                "reassigned to the largest observation"
            )
        for name in ("lambda_hat", "c_hat", "sigma_hat"):
            lines.append(f"{name}:")
            lines.extend("  " + "  ".join(f"{v:12.6g}" for v in row) for row in getattr(self, name).tolist())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
            "family": self.family.family_id,
            "n": self.n,
            "alpha": self.alpha,
            "converged": self.converged,
            "objective": self.objective_value,
            "eqn_residual": self.eqn_residual,
            "lambda_cond": self.lambda_cond,
            "residual_mass": self.residual_mass,
        }
        for name, value, se in zip(self.family.param_names, self.theta_hat, self.se):
            out[name] = float(value)
            out[f"se_{name}"] = float(se)
        return out


class _Point(NamedTuple):
    """A solver point eta with the objective H (inf where it is not finite),
    g, J_eta (by rows; None for a 1-D root), |g| and the data mass s0 =
    sum_i w_i f_i^alpha there, as floats.  A genuine root keeps s0 well away
    from zero, while a boundary runaway, where the density collapses on every
    observation and makes the equation trivially zero, does not."""
    eta: tuple
    value: float
    g: tuple
    jac: tuple
    norm: float
    mass: float


class _WeightedEquation:
    """Estimating equation and objective over fixed product-limit weights.

    The points are validated once here; every evaluation after that goes
    through the family's unvalidated closed forms.
    """

    def __init__(self, sample: CensoredSample, family: ParametricFamily, alpha: float):
        km = kmpl_fit(sample)
        if not km.weight_points[0] > 0.0:  # sorted, finite: the whole check
            raise ValueError(_X_DOMAIN)
        self.points, self.weights = km.weight_points, km.weight_masses
        self.prepared = family._prepare(km.weight_points)
        self.residual_mass = km.residual_mass
        self.event_times = km.support.size
        self.family = family
        self.alpha = alpha

    # the solver evaluates on Python floats, so a wild trial point whose
    # closed forms overflow or divide by zero raises ArithmeticError, and one
    # where f^(1+alpha) is not integrable raises ValueError; both come back
    # as NaN/inf for the damping logic, as do numpy's overflows under the
    # quiet floating-point state that fit() sets once for its whole solve
    def point(self, eta) -> _Point:
        """The trajectories' one evaluation at theta = exp(eta), for the
        Weibull at alpha > 0: (H, g, J_eta) with J_eta = J_theta diag(theta),
        from the family's fused pass."""
        theta = np.exp(eta).tolist()
        try:
            value, g, jac, mass = self.family._equation(theta, self.alpha, self.prepared, self.weights)
        except (ArithmeticError, ValueError):
            nan = (math.nan, math.nan)
            return _Point(eta, math.inf, nan, (nan, nan), math.inf, math.nan)
        ((g0, g1), ((d00, d01), (d10, d11)), (th0, th1)) = g, jac, theta
        jac, norm = ((d00 * th0, d01 * th1), (d10 * th0, d11 * th1)), math.sqrt(g0 * g0 + g1 * g1)
        # H and |g|, inf where they are not finite or overflow
        value = value if math.isfinite(value) else math.inf
        norm = norm if math.isfinite(norm) else math.inf
        return _Point(eta, value, g, jac, norm, mass)


def _trajectory(eq: _WeightedEquation, start: _Point, tol: float, max_iter: int, descent: bool):
    """Residual Newton, or with ``descent`` the descent on H, from ``start``
    until the residual norm |g| is within tol: (last point, iterations,
    converged), as straight-line float code for p = 2.

    Newton solves J_eta d = -g by Cramer's rule in the expression order of
    hypothesis._wald_form and accepts a step that lowers |g|.  The descent
    takes d from :func:`_descent_direction` and accepts a step on an Armijo
    decrease of H or, where H is flat to rounding (_FLAT_REL), on a lower
    |g|; each trial point takes one fused pass, which gives both.  d is
    shortened to _MAX_LOG_STEP in its longest coordinate and halved at most
    _MAX_HALVINGS times.  A residual within tol counts as a root only if H
    there is no higher than at the start (within _FLAT_REL): the absolute
    tolerance also holds far out towards the parameter boundary, where g ->
    0 as the scale grows.  A non-finite residual at the start, a step that
    cannot move (no trial accepted, J not finite, a singular J or S, an
    infinite H for the descent), a drift beyond _MAX_LOG_DRIFT from the
    start, and for Newton a stall (|g| above _STALL_RATIO times its value
    _STALL_STEPS accepted steps earlier) end the trajectory as not converged.
    """
    at, isfinite = start, math.isfinite
    if not all(isfinite(v) for v in at.g):
        return at, 0, False
    ceiling = at.value + _FLAT_REL * abs(at.value)
    slope_scale = _ARMIJO * (1.0 + eq.alpha)
    f0, f1 = start.eta
    norms = [at.norm]
    for iteration in range(max_iter):
        if at.norm <= tol:
            return at, iteration, at.value <= ceiling
        (e0, e1), (g0, g1), ((a, b), (c, d)) = at.eta, at.g, at.jac
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
            return at, iteration + 1, False
        if descent:
            found = _descent_direction(at.eta, at.g, at.jac) if isfinite(at.value) else None
            if found is None:
                return at, iteration + 1, False
            (x0, x1), (r0, r1) = found
        else:
            det, x0, x1 = a * d - b * c, d * -g0 - b * -g1, a * -g1 - c * -g0
            if det == 0.0:
                return at, iteration + 1, False
            x0, x1 = x0 / det, x1 / det
            if not (isfinite(x0) and isfinite(x1)):
                return at, iteration + 1, False
        big = max(abs(x0), abs(x1))
        if big > _MAX_LOG_STEP:
            x0, x1 = x0 * (_MAX_LOG_STEP / big), x1 * (_MAX_LOG_STEP / big)
        lam, flat = 1.0, at.value + _FLAT_REL * abs(at.value)
        slope = slope_scale * (r0 * x0 + r1 * x1) if descent else 0.0
        for _ in range(_MAX_HALVINGS):
            trial = eq.point((e0 + lam * x0, e1 + lam * x1))
            if (trial.value <= flat and (trial.value <= at.value + lam * slope or trial.norm < at.norm)
                    if descent else trial.norm < at.norm):
                break
            lam *= 0.5
        else:
            return at, iteration + 1, False
        at = trial
        if abs(at.eta[0] - f0) > _MAX_LOG_DRIFT or abs(at.eta[1] - f1) > _MAX_LOG_DRIFT:
            return at, iteration + 1, False
        norms.append(at.norm)
        stalled = len(norms) > _STALL_STEPS and at.norm > _STALL_RATIO * norms[-1 - _STALL_STEPS]
        if stalled and at.norm > tol and not descent:
            return at, iteration + 1, False
    return at, max_iter, at.norm <= tol and at.value <= ceiling


def _descent_direction(eta, g, jac):
    """(-|S|^-1 grad, grad) on floats for p = 2, with theta = exp(eta),
    grad = theta * g and S the symmetric part of diag(theta) J_eta plus
    diag(grad), the eta-Hessian of H over (1 + alpha); None where S is
    singular or the direction is not finite.  |S| takes S's eigenvalues l1,
    l2 in absolute value, so the step is downhill: for S = k [[p, q], [q,
    r]], k its largest entry in absolute value, D = |pr - q^2| and s =
    (|l1| + |l2|) / k, whose square is p^2 + r^2 + 2 q^2 + 2 D, |S| = k
    ([[p, q], [q, r]]^2 + D I) / s, whose inverse is the adjugate of the
    bracket over k D s."""
    theta = [math.exp(v) for v in eta]
    grad = [t * v for t, v in zip(theta, g)]
    (t0, t1), (g0, g1), ((j00, j01), (j10, j11)) = theta, grad, jac
    p, q, r = t0 * j00 + g0, 0.5 * (t0 * j01 + t1 * j10), t1 * j11 + g1
    k = max(abs(p), abs(q), abs(r))
    if not 0.0 < k < math.inf:
        return None
    p, q, r = p / k, q / k, r / k
    det = abs(p * r - q * q)
    if det == 0.0:
        return None
    m00, m01, m11 = p * p + q * q + det, q * (p + r), q * q + r * r + det
    scale = -1.0 / (k * det * math.sqrt(p * p + r * r + 2.0 * q * q + 2.0 * det))
    direction = ((m11 * g0 - m01 * g1) * scale, (m00 * g1 - m01 * g0) * scale)
    return (direction, grad) if all(map(math.isfinite, direction)) else None


def _root_from(eq: _WeightedEquation, eta0):
    """Residual Newton from eta0, then the descent from the same evaluated
    start when Newton gives no root: (end point, iterations of both,
    converged, path tag), for the Weibull at alpha > 0.  A converged end
    where the density has collapsed on every observation (data mass below
    1e-8 of the start's) is a boundary runaway."""
    start, iters = eq.point(eta0), 0
    for tag, descent in (("newton", False), ("descent", True)):
        end, n, ok = _trajectory(eq, start, _TOL_GRADIENT, _MAX_ITER, descent)
        iters += n
        if ok and end.mass < 1e-8 * start.mass:
            ok, tag = False, f"{tag}-degenerate"
        if ok:
            break
    return end, iters, ok, tag


def _bracketed_newton(newton, y):
    """The one 1-D solver, safeguarded Newton in y: newton(y) gives (h, step,
    state), h > 0 where the root lies above y and step = h / -h'(y).  A step
    is at most _MAX_LOG_STEP; one that leaves the bracket of h's sign bisects
    it instead or, while a side is open, goes _MAX_LOG_STEP towards the root.
    It stops once the step is within 4e-16 max(1, |y|) or the bracket is two
    adjacent floats: (y, its state, passes)."""
    lo, hi = -math.inf, math.inf
    for iteration in range(1, _MAX_ITER + 1):
        h, step, state = newton(y)
        lo, hi = (y, hi) if h > 0.0 else (lo, y)
        ahead = y + max(-_MAX_LOG_STEP, min(step, _MAX_LOG_STEP))
        if not lo < ahead < hi:
            ahead = 0.5 * (lo + hi) if hi - lo < math.inf else y + math.copysign(_MAX_LOG_STEP, h)
        if not (abs(step) > 4e-16 * max(1.0, abs(y)) and lo < ahead < hi):
            break
        y = ahead
    return y, state, iteration


def _profile_root(eq: _WeightedEquation, eta0):
    """(_root_end's point and certificate, passes) of the 1-D root: the
    exponential mean, sum w z / sum w at alpha = 0, else from eta0 the root in
    y = log theta of k = theta^(1+alpha) g = sum w (1 - r) e^(-alpha r) -
    alpha / (1 + alpha)^2, r = z / theta, which tends to -alpha / (1 + alpha)^2
    and 1 - alpha / (1 + alpha)^2 at the ends, so every start brackets it; or
    the Weibull shape, from pi / (sqrt 6 sd_w(L)), as the root in y = log b of
    h(b) = 1/b + sum w L / sum w - sum w e^(bL) L / sum w e^(bL), L = log z -
    max log z (e^(bL) <= 1 in any time unit), then sigma^b = sum w z^b / sum w."""
    mass, alpha, family = eq.weights, eq.alpha, eq.family
    if family.family_id == "exponential":
        if alpha == 0.0:
            return (*_root_end(eq, (math.log(float(eq.points @ mass) / float(mass.sum())),)), 0)
        shift = alpha / (1.0 + alpha) ** 2

        def newton(y):
            s0, s1, s2 = family._sums(float(np.exp(y)), alpha, eq.points, mass)  # inf past the float range
            k, slope = s0 - s1 - shift, alpha * s2 - (1.0 + alpha) * s1  # slope = -dk/dy
            return -k, k / slope if slope else -k * math.inf, None

        y, _, iterations = _bracketed_newton(newton, eta0[0])
        return (*_root_end(eq, (y,)), iterations)
    top = float(eq.prepared[0][-1])  # the points are sorted
    shifted = eq.prepared[0] - top
    rows = np.stack((mass, mass * shifted, mass * shifted * shifted))
    w0, w1, w2 = rows.sum(axis=1).tolist()
    mean0, var = w1 / w0, w2 / w0 - (w1 / w0) ** 2
    tilt = np.empty_like(shifted)

    def newton(y):
        b = math.exp(y)
        s0, s1, s2 = (rows @ np.exp(np.multiply(shifted, b, out=tilt), out=tilt)).tolist()
        mean = s1 / s0
        h = 1.0 / b + mean0 - mean
        return h, h / (1.0 / b + b * (s2 / s0 - mean * mean)), (s0, b)  # -dh/dy = 1/b + b Var

    y, (s0, b), iterations = _bracketed_newton(newton, math.log(math.pi / math.sqrt(6.0 * var)) if var > 0.0 else 0.0)
    return (*_root_end(eq, (top + math.log(s0 / w0) / b, y)), iterations)


def _root_end(eq: _WeightedEquation, eta):
    """(Point, certified) at a 1-D root's end eta from one evaluation of H, g
    and the unit-free certificate |e_k| <= _TOL_GRADIENT s_k: for the
    exponential e = k and s = alpha / (1 + alpha)^2 + sum w |1 - r| e^(-alpha
    r), and g = theta^-(1+alpha) k; for the Weibull at alpha = 0 (jvec = 0), e
    = g = -sum w u and s = sum w |u|.  J_eta and the data mass are not formed."""
    mass, alpha = eq.weights, eq.alpha
    try:
        if eq.family.dim == 1:
            (y,) = eta
            r = eq.points / float(np.exp(y))
            v = mass * np.exp(-alpha * r) if alpha else mass
            vr = v * r
            shift, s0, s1 = alpha / (1.0 + alpha) ** 2, float(v.sum()), float(vr.sum())
            k = s0 - s1 - shift
            # theta^-alpha and theta^-(1+alpha), inf where they overflow
            pref, unit = np.exp([-alpha * y, -(1.0 + alpha) * y]).tolist()
            value = pref * (1.0 / (1.0 + alpha) - (1.0 + alpha) / alpha * s0) + 1.0 / alpha if alpha else y * s0 + s1
            g, pairs = (unit * k,), ((k, shift + float(np.abs(v - vr).sum())),)
        else:
            logf, u = eq.family._pointwise(np.exp(eta).tolist(), eq.points)
            value, g = -float(mass @ logf), tuple((-(mass @ u)).tolist())
            pairs = zip(g, (mass @ np.abs(u, out=u)).tolist())
    except ArithmeticError:  # sigma or b underflows to 0 under b / sigma or 1 / b
        value, g, pairs = math.inf, (math.nan,) * len(eta), ((math.nan, 0.0),)
    # H and |g|, inf where they are not finite or overflow
    value, norm = (x if math.isfinite(x) else math.inf for x in (value, math.hypot(*g)))
    return _Point(eta, value, g, None, norm, math.nan), all(abs(e) <= _TOL_GRADIENT * s < math.inf for e, s in pairs)


def _start_eta(family: ParametricFamily, theta, alpha: float) -> tuple:
    """log of the validated start made feasible: a Weibull shape is raised to
    at least 1.5 alpha / (1 + alpha), since f^(1+alpha) is integrable only
    above alpha / (1 + alpha)."""
    theta = family.validate(theta).tolist()
    if family.family_id == "weibull":
        theta[1] = max(theta[1], 1.5 * alpha / (1.0 + alpha))
    return tuple(np.log(theta).tolist())


def _initial_theta(sample: CensoredSample, family: ParametricFamily) -> np.ndarray:
    """Moment/hazard-regression starting values of the two shipped families.

    Exponential: the product-limit median over log 2.  Weibull: straight-line
    fit of log cumulative hazard against log time at the event times (the
    log-log diagnostic line), falling back to shape 1 when degenerate.
    """
    start = sample._memo(f"initial_theta:{family.family_id}", lambda s: _hazard_start(s, family))
    start.setflags(write=False)  # built once per sample and family, shared by every fit
    return start


def _hazard_start(sample: CensoredSample, family: ParametricFamily) -> np.ndarray:
    """The start of :func:`_initial_theta`.  The exponential's median is the
    first support point with a CDF of at least 1/2 (over log 2 capped at the
    float maximum).  The Weibull line y = intercept + slope log t is fitted
    by centred least squares in closed form, slope = sum dx (y - mean y) /
    sum dx^2 with dx = log t - mean log t, over the product-limit support's
    run of positive times with a CDF below 1 - 1e-9 (the support rises and
    the CDF does not fall), whose times are distinct.  Either falls back on
    the total-time-on-test mean."""
    km = kmpl_fit(sample)
    support, cdf = km.support, km.cdf_values
    if family.family_id == "exponential":
        half = int(np.searchsorted(cdf, 0.5))
        if half < support.size:
            return np.array([min(float(support[half]) / math.log(2.0), np.finfo(float).max)])
    else:
        run = slice(1 if support.size and support[0] == 0.0 else 0, int(np.searchsorted(cdf, 1.0 - 1e-9)))
        x = np.log(support[run])
        if x.size >= 2:
            y = np.log(-np.log1p(-cdf[run]))
            x_mean, y_mean = float(x.sum()) / x.size, float(y.sum()) / y.size  # np.mean's bits
            dx = x - x_mean
            sxx = float(dx @ dx)  # 0 only where distinct times share a rounded log
            slope = float(dx @ (y - y_mean)) / sxx if sxx > 0.0 else math.nan
            if math.isfinite(slope) and slope > 0:
                b0 = min(max(slope, 0.05), 100.0)
                intercept = y_mean - slope * x_mean
                sigma0 = float(np.exp(-intercept / slope))
                if math.isfinite(sigma0) and sigma0 > 0:
                    return np.array([sigma0, b0])
    return np.array([float(sample.z.sum()) / max(sample.n_events, 1), 1.0][: family.dim])  # total time on test


def fit(sample: CensoredSample, family: ParametricFamily, config: FitConfig | None = None) -> FitResult:
    """Fit the divergence estimator at config.alpha and attach the sandwich.

    The solvers are the module docstring's: one 1-D solve ("profile") at
    alpha = 0, where a start is only validated, and for the exponential at
    alpha > 0, from its start (by default the product-limit median over log
    2); the Weibull's trajectories ("newton", "descent",
    "descent-degenerate") at alpha > 0 under its three rules.
    When nothing converged, ": no root at tol 1e-08" ends the message, and
    the fit returns converged=False, the last point and NaN matrices rather
    than raising.  An unidentifiable sample raises
    :class:`UnidentifiableSampleError` before any solve; a converged
    estimate whose sensitivity matrix is singular, or whose closed forms are
    not finite, raises :class:`varest.SingularSensitivityError`.
    """
    config = config or FitConfig()
    alpha = config.alpha
    eq = _WeightedEquation(sample, family, alpha)
    if eq.event_times < family.dim:
        raise UnidentifiableSampleError(
            f"{family.family_id} needs at least {family.dim} distinct event "
            f"time(s); the sample has {eq.event_times}"
        )
    explicit = config.start is not None
    # at alpha = 0 an explicit start is unused by the unique root, but checked as for alpha > 0
    eta0 = _start_eta(family, config.start if explicit else _initial_theta(sample, family), alpha) if alpha or explicit else None
    # trial points may overflow (rejected steps); psi is checked where formed
    with np.errstate(all="ignore"):
        if alpha == 0.0 or family.dim == 1:
            (end, ok, iters), tag = _profile_root(eq, eta0), "profile"
        else:
            end, iters, ok, tag = _root_from(eq, eta0)
            if not ok and explicit:
                end, more, ok, tag = _root_from(eq, _start_eta(family, _initial_theta(sample, family), alpha))
                iters += more
        theta_hat = np.exp(end.eta)
        if ok:  # a converged theta_hat is finite and positive
            try:
                lam, psi = _sample_psi(family, theta_hat, alpha)
            except ValueError:  # Lambda overflows: no sandwich in floats
                raise varest.SingularSensitivityError("sensitivity matrix is singular (cond=inf)") from None
            cov = varest.covariance_estimate(sample, psi, theta_hat, lam)
    if not ok:  # no sandwich away from a root, where Lambda need not even exist
        nan = np.full((family.dim, family.dim), np.nan)
        cov = varest.CovarianceEstimate(nan, nan.copy(), nan.copy(), np.inf)
    return FitResult(
        family=family,
        n=sample.n,
        alpha=alpha,
        theta_hat=theta_hat,
        objective_value=end.value,
        eqn_residual=end.norm,
        converged=ok,
        n_iter=iters,
        lambda_hat=cov.lambda_hat,
        c_hat=cov.c_hat,
        sigma_hat=cov.sigma_hat,
        lambda_cond=cov.lambda_cond,
        residual_mass=eq.residual_mass,
        message=tag if ok else f"{tag}: no root at tol {_TOL_GRADIENT:g}",
    )


def fit_grid(
    sample: CensoredSample,
    family: ParametricFamily,
    alpha_grid: Sequence[float],
) -> list[FitResult]:
    """Sequential fits over an ascending alpha grid, the first from the
    default start and each later alpha warm-started from the previous
    estimate; per-alpha failures do not abort the sweep."""
    grid = [validate_alpha(a) for a in alpha_grid]
    if not grid:
        raise ValueError("alpha_grid must contain at least one value")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha_grid must be ascending")
    results: list[FitResult] = []
    start = None
    for alpha in grid:
        try:
            result = fit(sample, family, FitConfig(alpha, start))
        except (varest.SingularSensitivityError, ValueError) as exc:
            # per-alpha failure (unidentifiable sample, singular sandwich,
            # ...): record it, keep sweeping from the last good start
            results.append(FitResult.failed(family, sample.n, alpha, str(exc)))
            continue
        results.append(result)
        if result.converged:
            start = tuple(result.theta_hat)
    return results
