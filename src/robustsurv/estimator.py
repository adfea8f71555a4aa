"""Divergence-based fitting from censored samples.

The estimator solves the product-limit-weighted estimating equation

    jvec_alpha(theta) - sum_i w_i u(z_i; theta) f(z_i; theta)^alpha = 0

with w_i the tail-completed product-limit masses, or equivalently minimizes
the weighted divergence objective.  alpha = 0 is the product-limit-weighted
likelihood (the approximate MLE), not the censored-data MLE; the two coincide
on uncensored data.

Solver: damped Newton on the estimating equation in log-parameter space
(positivity for free), a descent Newton on the objective when that fails,
and a deterministic screen of four log-space offsets of the start so that
among multiple roots the one with the smallest objective wins.  Both use the
exact Jacobian

    J_theta = d jvec / d theta - sum_i w_i (grad u_i + alpha u_i u_i^T) f_i^alpha,

with d jvec / d theta from the family's closed-form integrals (Basu, Harris,
Hjort & Jones 1998, Biometrika 85:549, for the alpha-weighted information),
and J_eta = J_theta diag(theta) in the log coordinates eta.  The family's
fused pass gives (g, J) at a point at once, and no trajectory makes it twice
at one point: the pass at an accepted trial point is the next step's.  The
p x p step algebra runs on Python floats.

The first trajectory, from the start, is residual Newton: it solves
J_eta step = -g and accepts a step that lowers |g|.  Every later trajectory
is descent Newton on the objective H, whose eta-gradient is
(1 + alpha) theta * g and whose eta-Hessian is (1 + alpha) times
diag(theta) J_theta diag(theta) + diag(theta * g).  The Hessian's
eigenvalues are replaced by their absolute values, so each step points
downhill on H, and the step is backtracked to an Armijo decrease of H.  At a
root the diagonal term vanishes and the step is the Newton step.

Either trajectory that moves more than _MAX_LOG_DRIFT (e^20) from its own
start in any log coordinate is running off to the parameter boundary (scale
to infinity with shape collapsing) and is stopped as not converged.  The
residual Newton trajectory is also stopped as not converged when it stalls:
an accepted step that leaves |g| above half its value five accepted steps
earlier (_STALL_RATIO, _STALL_STEPS).  Newton converges q-quadratically near
a regular root, so such a trajectory is crawling towards the boundary, and
the descent from the same start takes over sooner.  The descent has no stall
stop, since an Armijo descent need not lower |g| steadily.

FitResult.message names the path of the returned estimate: "newton" (the
first trajectory), "descent" (the descent from the start after the first
trajectory failed), "descent-restart" (a descent from a log-space offset of
the start that found a root with a smaller objective).  "-degenerate" is
appended to a root at which the density has vanished on every observation,
and ": no root at tol ..." to any path that did not converge.
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
# the residual norm
_FLAT_REL = 1e-13

# deterministic log-space offsets tried as alternative starts
_OFFSETS_1D = [(0.7,), (-0.7,), (1.4,), (-1.4,)]
_OFFSETS_2D = [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)]


class UnidentifiableSampleError(ValueError):
    """Fewer distinct event times than the family has parameters: no event
    for the exponential, fewer than two distinct event times for the Weibull."""


@dataclass(frozen=True)
class FitConfig:
    """Divergence tuning constant and optional solver start of one fit (a
    warm-started alpha sweep passes each estimate on as the next start).
    The residual tolerance 1e-8, the cap of 200 iterations per trajectory
    and the four restart offsets are fixed (see the module docstring)."""

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
    n_iter counts the iterations of every trajectory behind the returned
    estimate: for "descent" that includes the failed first Newton trajectory
    from the same start.
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
    """A solver point eta with g, J_eta (by rows) and |g| there, as floats."""
    eta: tuple
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

    def estimating(self, theta, jacobian: bool = False):
        """g(theta) or, with ``jacobian``, (g, J_theta): arrays of one pass."""
        g, jac = self.family._equation(
            [float(v) for v in theta], self.alpha, self.prepared, self.weights
        )
        return (np.array(g), np.array(jac)) if jacobian else np.array(g)

    def objective(self, theta) -> float:
        fam, alpha = self.family, self.alpha
        logf = fam._pointwise(theta, self.points, 0)[0]
        if alpha == 0.0:
            value = -float(self.weights @ logf)
        else:
            xi = fam._integrals(theta, alpha, False)[0]
            value = (
                xi
                - (1.0 + alpha) / alpha * float(self.weights @ np.exp(alpha * logf))
                + 1.0 / alpha
            )
        return value if math.isfinite(value) else math.inf

    # log-space views used by the solver.  They evaluate on Python floats, so
    # a wild trial point whose closed forms overflow or divide by zero raises
    # ArithmeticError, and one where f^(1+alpha) is not integrable raises
    # ValueError; both come back as NaN/inf for the damping logic, as do
    # numpy's overflows under the quiet floating-point state that fit() sets
    # once for its whole solve
    def point(self, eta) -> _Point:
        """The solver's one evaluation at theta = exp(eta): (g, J_eta) with
        J_eta = J_theta diag(theta), from the family's fused pass."""
        theta = np.exp(eta).tolist()
        try:
            g, jac = self.family._equation(theta, self.alpha, self.prepared, self.weights)
        except (ArithmeticError, ValueError):
            nan = (math.nan,) * len(theta)
            return _Point(eta, nan, (nan,) * len(theta), math.inf)
        jac = tuple(tuple(d * th for d, th in zip(row, theta)) for row in jac)
        # |g|, inf where it is not finite or overflows
        norm = math.sqrt(sum(v * v for v in g))
        return _Point(eta, g, jac, norm if math.isfinite(norm) else math.inf)

    def objective_log(self, eta: np.ndarray) -> float:
        try:
            return self.objective(np.exp(eta).tolist())
        except (ArithmeticError, ValueError):
            return math.inf

    def data_mass(self, eta: np.ndarray) -> float:
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


def _finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def _solve(
    eq: _WeightedEquation, eta0, tol: float, max_iter: int, step,
    stall: bool = False,
):
    """Iterate ``step(point)`` from the point at eta0 until the residual norm
    |g| is within tol.

    ``step`` returns the accepted next :class:`_Point`, with its pass, or
    None when it cannot move.  Returns (eta, residual norm, iterations,
    converged).  A non-finite residual at eta0, a step that cannot move, and
    a drift beyond _MAX_LOG_DRIFT from eta0 all end the trajectory as not
    converged; with ``stall``, so does an accepted step that leaves |g| above
    _STALL_RATIO times its value _STALL_STEPS accepted steps earlier.
    """
    eta0 = tuple(float(v) for v in eta0)
    at = eq.point(eta0)
    if not all(math.isfinite(v) for v in at.g):
        return eta0, math.inf, 0, False
    norms = [at.norm]
    for iteration in range(max_iter):
        if at.norm <= tol:
            return at.eta, at.norm, iteration, True
        moved = step(at)
        if moved is None:
            return at.eta, at.norm, iteration + 1, False
        at = moved
        if max(abs(v - v0) for v, v0 in zip(at.eta, eta0)) > _MAX_LOG_DRIFT:
            return at.eta, at.norm, iteration + 1, False
        if stall:
            norms.append(at.norm)
            if (
                at.norm > tol
                and len(norms) > _STALL_STEPS
                and at.norm > _STALL_RATIO * norms[-1 - _STALL_STEPS]
            ):
                return at.eta, at.norm, iteration + 1, False
    return at.eta, at.norm, max_iter, at.norm <= tol


def _capped(step) -> tuple:
    big = max(abs(v) for v in step)
    return tuple(v * (_MAX_LOG_STEP / big) for v in step) if big > _MAX_LOG_STEP else tuple(step)


def _newton_direction(jac, g):
    """Capped Newton step -J^-1 g on floats, by Cramer's rule for the shipped
    p <= 2; None when J is not finite or singular."""
    if len(g) == 1:
        det, step = jac[0][0], (-g[0],)
    else:
        (a, b), (c, d) = jac
        det, step = a * d - b * c, (b * g[1] - d * g[0], c * g[0] - a * g[1])
    if not (_finite(jac) and det != 0.0):
        return None
    step = tuple(v / det for v in step)
    return _capped(step) if _finite((step,)) else None


def _newton(eq: _WeightedEquation, eta0, tol: float, max_iter: int):
    """Damped Newton from eta0 on the log-space estimating equation.

    A step is accepted once it lowers |g|; one that does not within
    _MAX_HALVINGS halvings, a singular or non-finite Jacobian, or a stall
    (|g| not halved in _STALL_STEPS accepted steps) ends the trajectory (see
    _solve for the rest of the contract).
    """

    def step(at):
        direction = _newton_direction(at.jac, at.g)
        if direction is None:
            return None
        lam = 1.0
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
    lower |g|.  An infinite objective at eta0 (f^(1+alpha) not integrable)
    means the descent cannot start.  It has no stall stop: an Armijo descent
    lowers the objective, not necessarily |g|, and may shrink |g| slowly far
    from a root before its Newton phase.  See _solve for the rest of the
    contract.
    """
    value = eq.objective_log(eta0)
    slope_scale = _ARMIJO * (1.0 + eq.alpha)

    def step(at):
        nonlocal value
        if not (math.isfinite(value) and _finite(at.jac)):
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
        flat = value + _FLAT_REL * abs(value)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial_eta = tuple(v + t * d for v, d in zip(at.eta, direction))
            trial_value = eq.objective_log(trial_eta)
            if trial_value <= flat:
                trial = eq.point(trial_eta)
                if trial_value <= value + t * slope or trial.norm < at.norm:
                    value = trial_value
                    return trial
            t *= 0.5
        return None

    return _solve(eq, eta0, tol, max_iter, step)


def _initial_theta(sample: CensoredSample, family: ParametricFamily) -> np.ndarray:
    """Moment/hazard-regression starting values.

    Exponential: total time on test over event count.  Weibull: straight-line
    fit of log cumulative hazard against log time at the event times (the
    log-log diagnostic line), falling back to shape 1 when degenerate.
    """
    events = max(sample.n_events, 1)
    ttt_mean = float(sample.z.sum()) / events
    ttt_mean = max(ttt_mean, 1e-12)
    if family.family_id == "exponential":
        return np.array([ttt_mean])
    if family.family_id == "weibull":
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
    # generic fallback: match the mean with every other coordinate at 1
    guess = np.ones(family.dim)
    guess[0] = ttt_mean
    return guess


def fit(sample: CensoredSample, family: ParametricFamily, config: FitConfig | None = None) -> FitResult:
    """Fit the divergence estimator at config.alpha and attach the sandwich.

    Among multiple estimating-equation roots the one with the smallest
    objective value is returned.  When residual Newton from the start fails,
    descent Newton on the objective takes over from the same start; offsets
    of the start whose objective undercuts the best root (every offset when
    there is no root) are descended from as well.  FitResult.message names
    the path taken (see the module docstring).  Non-convergence yields
    converged=False, the best point found and NaN matrices, not an exception.
    An unidentifiable sample raises :class:`UnidentifiableSampleError` before
    any solve; a converged estimate whose sensitivity matrix is singular
    raises :class:`varest.SingularSensitivityError`.
    """
    config = config or FitConfig()
    alpha = config.alpha
    eq = _WeightedEquation(sample, family, alpha)
    if eq.event_times < family.dim:
        raise UnidentifiableSampleError(
            f"{family.family_id} needs at least {family.dim} distinct event "
            f"time(s); the sample has {eq.event_times}"
        )
    if config.start is not None:
        start = family.validate(config.start)
    else:
        start = family.validate(_initial_theta(sample, family))
    eta0 = tuple(np.log(start).tolist())
    offsets = _OFFSETS_1D if family.dim == 1 else _OFFSETS_2D

    candidates: list[tuple[float, tuple, float, int, bool, str]] = []
    degenerate: list[tuple[float, tuple, float, int, bool, str]] = []

    def add_candidate(eta, residual, iters, ok, tag) -> bool:
        """Record a solver outcome; boundary runaways (density mass collapsed
        relative to the start) are never counted as roots."""
        if (
            ok
            and alpha > 0.0
            and reference_mass > 0.0
            and eq.data_mass(eta) < 1e-8 * reference_mass
        ):
            degenerate.append(
                (eq.objective_log(eta), eta, residual, iters, False, f"{tag}-degenerate")
            )
            return False
        candidates.append((eq.objective_log(eta), eta, residual, iters, ok, tag))
        return ok

    # trial points may overflow; the solver treats those as rejected steps
    with np.errstate(all="ignore"):
        reference_mass = eq.data_mass(eta0)
        eta, residual, iters, ok = _newton(eq, eta0, _TOL_GRADIENT, _MAX_ITER)
        if not add_candidate(eta, residual, iters, ok, "newton"):
            eta, residual, iters2, ok = _descent(eq, eta0, _TOL_GRADIENT, _MAX_ITER)
            add_candidate(eta, residual, iters + iters2, ok, "descent")
        # screen alternative starts; only chase ones that undercut the best
        # root, or every one when there is none
        best_obj = min((c[0] for c in candidates if c[4]), default=np.inf)
        for off in offsets:
            eta_alt = tuple(v + o for v, o in zip(eta0, off))
            if eq.objective_log(eta_alt) < best_obj:
                eta, residual, iters, ok = _descent(eq, eta_alt, _TOL_GRADIENT, _MAX_ITER)
                if ok:
                    add_candidate(eta, residual, iters, ok, "descent-restart")

    pool = [c for c in candidates if c[4]] or candidates or degenerate
    obj, eta_hat, residual, iters, ok, tag = min(pool, key=lambda c: (c[0], c[2]))
    theta_hat = np.exp(eta_hat)
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
        objective_value=float(obj),
        eqn_residual=float(residual),
        converged=bool(ok),
        n_iter=int(iters),
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
