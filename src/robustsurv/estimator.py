"""Divergence-based fitting from censored samples.

The estimator solves the product-limit-weighted estimating equation

    jvec_alpha(theta) - sum_i w_i u(z_i; theta) f(z_i; theta)^alpha = 0

with w_i the tail-completed product-limit masses, or equivalently minimizes
the weighted divergence objective.  alpha = 0 is the product-limit-weighted
likelihood (the approximate MLE), not the censored-data MLE; the two coincide
on uncensored data.

Solver: one start and at most two trajectories from it, in log-parameter
space (positivity for free), on the exact Jacobian

    J_theta = d jvec / d theta - sum_i w_i (grad u_i + alpha u_i u_i^T) f_i^alpha,

with d jvec / d theta from the family's closed-form integrals (Basu, Harris,
Hjort & Jones 1998, Biometrika 85:549, for the alpha-weighted information),
and J_eta = J_theta diag(theta) in the log coordinates eta.  The family's
fused pass, the solver's only evaluation, gives the objective H, g and J at
a point at once; no trajectory makes it twice at one point, and the p x p
step algebra runs on Python floats.

Residual Newton runs first: it solves J_eta step = -g and accepts a step
that lowers |g|.  When it gives no root, descent Newton on H runs from the
same start: the eta-Hessian of H, (1 + alpha) times diag(theta) J_theta
diag(theta) + diag(theta * g), has its eigenvalues replaced by their
absolute values, so each step points downhill, and the step is backtracked
to an Armijo decrease of H (Nocedal & Wright, Numerical Optimization, 2nd
ed., section 3.4).  At a root the diagonal term vanishes and the step is
Newton's.

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

FitResult.message names the trajectory of the estimate, "newton" or
"descent".  A converged end where the density has vanished on every
observation is no root: Newton's hands over to the descent, and the
descent's is tagged "descent-degenerate".  ": no root at tol 1e-08" is
appended when no trajectory converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import varest
from .data import CensoredSample
from .kmpl import kmpl_fit
from .model import ParametricFamily, lambda_model, mdpde_psi, validate_alpha

__all__ = ["FitConfig", "FitResult", "UnidentifiableSampleError", "mdpde_objective", "fit", "fit_grid"]

# a Newton trajectory farther than this from its own start in some log
# coordinate (a factor e^20) is a boundary runaway; no accepted root on the
# acceptance designs lies anywhere near that far from its start
_MAX_LOG_DRIFT = 20.0
# every trajectory stops as converged once the residual norm |g| is within
# _TOL_GRADIENT, and as not converged after _MAX_ITER iterations
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
    it gives no root, the fit retries from the default start).  The residual
    tolerance 1e-8 and the cap of 200 iterations per trajectory are fixed
    (see the module docstring)."""

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
    start, and after an explicit-start fallback both starts' trajectories.
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
        if self.residual_mass > 0.05:
            lines.append(
                f"note: defective product-limit tail mass {self.residual_mass:.3f} "
                "reassigned to the largest observation"
            )
        with np.printoptions(precision=6, suppress=False):
            lines.append(f"lambda_hat:\n{self.lambda_hat}")
            lines.append(f"c_hat:\n{self.c_hat}")
            lines.append(f"sigma_hat:\n{self.sigma_hat}")
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
    g, J_eta (by rows) and |g| there, as floats."""
    eta: tuple
    value: float
    g: tuple
    jac: tuple
    norm: float


class _WeightedEquation:
    """Estimating equation and objective over fixed product-limit weights.

    The points are validated once here; every evaluation after that goes
    through the family's unvalidated closed forms.
    """

    def __init__(self, sample: CensoredSample, family: ParametricFamily, alpha: float):
        km = kmpl_fit(sample)
        self.points = family._check_x(km.weight_points)
        self.weights = km.weight_masses
        self.prepared = family._prepare(self.points)
        self.residual_mass = km.residual_mass
        self.event_times = km.support.size
        self.family = family
        self.alpha = alpha

    def _pass(self, theta):
        return self.family._equation([float(v) for v in theta], self.alpha, self.prepared, self.weights)

    def estimating(self, theta, jacobian: bool = False):
        """g(theta) or, with ``jacobian``, (g, J_theta): arrays of one pass."""
        _, g, jac = self._pass(theta)
        return (np.array(g), np.array(jac)) if jacobian else np.array(g)

    def objective(self, theta) -> float:
        """H(theta) from the fused pass; inf where it is not finite."""
        try:
            value = self._pass(theta)[0]
        except ArithmeticError:
            return math.inf
        return value if math.isfinite(value) else math.inf

    # the solver evaluates on Python floats, so a wild trial point whose
    # closed forms overflow or divide by zero raises ArithmeticError, and one
    # where f^(1+alpha) is not integrable raises ValueError; both come back
    # as NaN/inf for the damping logic, as do numpy's overflows under the
    # quiet floating-point state that fit() sets once for its whole solve
    def point(self, eta) -> _Point:
        """The solver's one evaluation at theta = exp(eta): (H, g, J_eta)
        with J_eta = J_theta diag(theta), from the family's fused pass."""
        theta = np.exp(eta).tolist()
        try:
            value, g, jac = self._pass(theta)
        except (ArithmeticError, ValueError):
            nan = (math.nan,) * len(theta)
            return _Point(eta, math.inf, nan, (nan,) * len(theta), math.inf)
        jac = tuple(tuple(d * th for d, th in zip(row, theta)) for row in jac)
        norm = math.sqrt(sum(v * v for v in g))
        # H and |g|, inf where they are not finite or overflow
        value, norm = (v if math.isfinite(v) else math.inf for v in (value, norm))
        return _Point(eta, value, g, jac, norm)

    def data_mass(self, eta) -> float:
        """Weighted mean of f^alpha over the sample; a genuine root keeps it
        well away from zero, while boundary runaways (density collapsing to
        zero on all observations, making the equation trivially zero) do not.
        """
        try:
            logf = self.family._pointwise(np.exp(eta).tolist(), self.points, 0)[0]
            return float(self.weights @ np.exp(self.alpha * logf))
        except (ArithmeticError, ValueError):
            return 0.0


def mdpde_objective(sample: CensoredSample, family: ParametricFamily, theta, alpha: float) -> float:
    """Product-limit-weighted divergence objective.

    For alpha > 0 this is xi_alpha(theta) - (1+alpha)/alpha * E_hat[f^alpha]
    plus the theta-free constant 1/alpha, which makes the map continuous in
    alpha; at alpha = 0 it is the weighted negative log-likelihood.
    """
    theta = family.validate(theta)
    return _WeightedEquation(sample, family, alpha).objective(theta)


def _solve(
    eq: _WeightedEquation, eta0, tol: float, max_iter: int, step,
    stall: bool = False,
):
    """Iterate ``step(point)`` from the point at eta0 until the residual norm
    |g| is within tol.

    ``step`` returns the accepted next :class:`_Point`, with its pass, or
    None when it cannot move.  Returns (last point, iterations, converged).
    A residual within tol counts as a root only if the objective there is no
    higher than at eta0 (within _FLAT_REL): the absolute tolerance also holds
    far out towards the parameter boundary, where g -> 0 as the scale grows.
    A non-finite residual at eta0, a step that cannot move, and a drift
    beyond _MAX_LOG_DRIFT from eta0 all end the trajectory as not converged;
    with ``stall``, so does an accepted step that leaves |g| above
    _STALL_RATIO times its value _STALL_STEPS accepted steps earlier.
    """
    eta0 = tuple(float(v) for v in eta0)
    at = eq.point(eta0)
    if not all(math.isfinite(v) for v in at.g):
        return at, 0, False
    ceiling = at.value + _FLAT_REL * abs(at.value)
    norms = [at.norm]
    for iteration in range(max_iter):
        if at.norm <= tol:
            return at, iteration, at.value <= ceiling
        moved = step(at)
        if moved is None:
            return at, iteration + 1, False
        at = moved
        if max(abs(v - v0) for v, v0 in zip(at.eta, eta0)) > _MAX_LOG_DRIFT:
            return at, iteration + 1, False
        if stall:
            norms.append(at.norm)
            if (
                at.norm > tol
                and len(norms) > _STALL_STEPS
                and at.norm > _STALL_RATIO * norms[-1 - _STALL_STEPS]
            ):
                return at, iteration + 1, False
    return at, max_iter, at.norm <= tol and at.value <= ceiling


def _capped(step) -> tuple:
    big = max(abs(v) for v in step)
    return tuple(v * (_MAX_LOG_STEP / big) for v in step) if big > _MAX_LOG_STEP else tuple(step)


def _newton(eq: _WeightedEquation, eta0, tol: float, max_iter: int):
    """Damped Newton from eta0 on the log-space estimating equation.

    A step is accepted once it lowers |g|; one that does not within
    _MAX_HALVINGS halvings, a singular or non-finite Jacobian, or a stall
    (|g| not halved in _STALL_STEPS accepted steps) ends the trajectory (see
    _solve for the rest of the contract).
    """

    def step(at):
        # -J^-1 g by varest's Cramer solve (the shipped p <= 2); None when J
        # is not finite or singular
        direction = varest._small_solve(at.jac, tuple(-v for v in at.g))
        if direction is None:
            return None
        direction, lam = _capped(direction), 1.0
        for _ in range(_MAX_HALVINGS):
            trial = eq.point(tuple(v + lam * d for v, d in zip(at.eta, direction)))
            if trial.norm < at.norm:
                return trial
            lam *= 0.5
        return None

    return _solve(eq, eta0, tol, max_iter, step, stall=True)


def _descent(eq: _WeightedEquation, eta0, tol: float, max_iter: int):
    """Descent Newton from eta0 on the objective in log coordinates.

    The eta-Hessian over (1 + alpha), diag(theta) J_theta diag(theta) +
    diag(theta * g), has its eigenvalues replaced by their absolute values,
    so the step is downhill; it is accepted on an Armijo decrease of the
    objective, or, where the objective is flat to rounding (_FLAT_REL), on a
    lower |g|; each trial point takes one fused pass, which gives both.  An
    infinite objective at eta0 means the descent cannot start.  It has no
    stall stop: an Armijo descent lowers the objective, not necessarily |g|
    (see _solve for the rest of the contract).
    """
    slope_scale = _ARMIJO * (1.0 + eq.alpha)

    def step(at):
        if not (math.isfinite(at.value) and varest._finite(at.jac)):
            return None
        theta = np.exp(at.eta)
        grad = theta * at.g
        hess = theta[:, None] * np.array(at.jac)
        eigval, eigvec = np.linalg.eigh(0.5 * (hess + hess.T) + np.diag(grad))
        eigval = np.abs(eigval)
        if not eigval.min() > 0.0:
            return None
        direction = _capped((-eigvec @ ((eigvec.T @ grad) / eigval)).tolist())
        slope = slope_scale * float(grad @ direction)
        flat, t = at.value + _FLAT_REL * abs(at.value), 1.0
        for _ in range(_MAX_HALVINGS):
            trial = eq.point(tuple(v + t * d for v, d in zip(at.eta, direction)))
            if trial.value <= flat and (
                trial.value <= at.value + t * slope or trial.norm < at.norm
            ):
                return trial
            t *= 0.5
        return None

    return _solve(eq, eta0, tol, max_iter, step)


def _root_from(eq: _WeightedEquation, eta0):
    """Residual Newton from eta0, then the descent from eta0 when Newton
    gives no root: (end point, iterations of both, converged, path tag).  A
    converged end where the density has collapsed on every observation
    (alpha > 0, mass below 1e-8 of the start's) is a boundary runaway."""
    reference_mass = eq.data_mass(eta0) if eq.alpha > 0.0 else 0.0
    iters = 0
    for tag, solver in (("newton", _newton), ("descent", _descent)):
        end, n, ok = solver(eq, eta0, _TOL_GRADIENT, _MAX_ITER)
        iters += n
        if ok and reference_mass > 0.0 and eq.data_mass(end.eta) < 1e-8 * reference_mass:
            ok, tag = False, f"{tag}-degenerate"
        if ok:
            break
    return end, iters, ok, tag


def _start_eta(family: ParametricFamily, theta, alpha: float) -> tuple:
    """log of the validated start made feasible: a Weibull shape is raised to
    at least 1.5 alpha / (1 + alpha), since f^(1+alpha) is integrable only
    above alpha / (1 + alpha)."""
    theta = family.validate(theta)
    if family.family_id == "weibull":
        theta = np.array([theta[0], max(theta[1], 1.5 * alpha / (1.0 + alpha))])
    return tuple(np.log(theta).tolist())


def _initial_theta(sample: CensoredSample, family: ParametricFamily) -> np.ndarray:
    """Moment/hazard-regression starting values of the two shipped families.

    Exponential: total time on test over event count.  Weibull: straight-line
    fit of log cumulative hazard against log time at the event times (the
    log-log diagnostic line), falling back to shape 1 when degenerate.
    """
    ttt_mean = max(float(sample.z.sum()) / max(sample.n_events, 1), 1e-12)
    if family.family_id == "exponential":
        return np.array([ttt_mean])
    km = kmpl_fit(sample)
    mask = (km.cdf_values < 1.0 - 1e-9) & (km.support > 0.0)
    t = km.support[mask]
    if t.size >= 2 and np.unique(t).size >= 2:
        y = np.log(-np.log1p(-km.cdf_values[mask]))
        slope, intercept = np.polyfit(np.log(t), y, 1)
        if np.isfinite(slope) and slope > 0:
            b0 = float(np.clip(slope, 0.05, 100.0))
            sigma0 = float(np.exp(-intercept / slope))
            if np.isfinite(sigma0) and sigma0 > 0:
                return np.array([sigma0, b0])
    return np.array([ttt_mean, 1.0])


def fit(sample: CensoredSample, family: ParametricFamily, config: FitConfig | None = None) -> FitResult:
    """Fit the divergence estimator at config.alpha and attach the sandwich.

    Residual Newton, then descent Newton when Newton gives no root, run from
    one start (module docstring) under three rules: a Weibull start shape is
    raised to 1.5 alpha / (1 + alpha) when below it; a root may not lie above
    its start's objective; and an explicit config.start without a root is
    retried once from the default start.  FitResult.message is "newton",
    "descent" or "descent-degenerate", with ": no root at tol 1e-08" when
    nothing converged; the fit then returns converged=False, the last
    trajectory's end and NaN matrices rather than raising.  An unidentifiable
    sample raises :class:`UnidentifiableSampleError` before any solve; a
    converged estimate whose sensitivity matrix is singular raises
    :class:`varest.SingularSensitivityError`.
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
    eta0 = _start_eta(family, config.start if explicit else _initial_theta(sample, family), alpha)
    # trial points may overflow; the solver treats those as rejected steps
    with np.errstate(all="ignore"):
        end, iters, ok, tag = _root_from(eq, eta0)
        if not ok and explicit:
            eta0 = _start_eta(family, _initial_theta(sample, family), alpha)
            end, more, ok, tag = _root_from(eq, eta0)
            iters += more
    theta_hat = np.exp(end.eta)
    if ok:
        lam = lambda_model(family, theta_hat, alpha)
        cov = varest.covariance_estimate(
            sample, lambda x, th: mdpde_psi(family, th, alpha, x), theta_hat, lam
        )
    else:  # no sandwich away from a root, where Lambda need not even exist
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
    config: FitConfig | None = None,
) -> list[FitResult]:
    """Sequential fits over an ascending alpha grid, warm-starting each alpha
    from the previous estimate; per-alpha failures do not abort the sweep."""
    config = config or FitConfig()
    grid = [validate_alpha(a) for a in alpha_grid]
    if not grid:
        raise ValueError("alpha_grid must contain at least one value")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha_grid must be ascending")
    if config.start is not None:
        family.validate(config.start)
    results: list[FitResult] = []
    start = config.start
    for alpha in grid:
        try:
            result = fit(sample, family, FitConfig(alpha, start))
        except (varest.SingularSensitivityError, ValueError, np.linalg.LinAlgError) as exc:
            # per-alpha failure (unidentifiable sample, singular sandwich,
            # ...): record it, keep sweeping from the last good start
            results.append(FitResult.failed(family, sample.n, alpha, str(exc)))
            continue
        results.append(result)
        if result.converged:
            start = tuple(result.theta_hat)
    return results
