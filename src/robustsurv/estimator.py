"""Divergence-based fitting from censored samples.

The estimator solves the product-limit-weighted estimating equation

    jvec_alpha(theta) - sum_i w_i u(z_i; theta) f(z_i; theta)^alpha = 0

with w_i the tail-completed product-limit masses, or equivalently minimizes
the weighted divergence objective.  alpha = 0 is the product-limit-weighted
likelihood (the approximate MLE), not the censored-data MLE; the two coincide
on uncensored data.

Solver: damped Newton on the estimating equation in log-parameter space
(positivity for free), with a Nelder-Mead fallback on the objective and a
small deterministic multistart screen so that among multiple roots the one
with the smallest objective wins.  Newton uses the exact Jacobian

    J_theta = d jvec / d theta - sum_i w_i (grad u_i + alpha u_i u_i^T) f_i^alpha,

with d jvec / d theta from the family's closed-form integrals (Basu, Harris,
Hjort & Jones 1998, Biometrika 85:549, for the alpha-weighted information),
and J_eta = J_theta diag(theta) in the log coordinates eta.  Each iterate
takes one pass over the points for (g, J); the line search evaluates only g.
A trajectory that moves more than _MAX_LOG_DRIFT from its own start in any
log coordinate is running off to the parameter boundary (scale to infinity
with shape collapsing) and is stopped as not converged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from . import varest
from .data import CensoredSample
from .kmpl import kmpl_fit
from .model import ParametricFamily, mdpde_psi, lambda_model

__all__ = ["FitConfig", "FitResult", "mdpde_objective", "fit", "fit_grid"]

# a Newton trajectory farther than this from its own start in some log
# coordinate (a factor e^20) is a boundary runaway; no accepted root on the
# acceptance designs lies anywhere near that far from its start
_MAX_LOG_DRIFT = 20.0

# deterministic log-space offsets tried as alternative starts
_OFFSETS_1D = [(0.7,), (-0.7,), (1.4,), (-1.4,), (2.1,), (-2.1,)]
_OFFSETS_2D = [
    (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5),
    (0.7, 0.7), (-0.7, -0.7), (0.7, -0.7), (-0.7, 0.7),
]


@dataclass(frozen=True)
class FitConfig:
    """Tuning for a single fit (or a warm-started alpha sweep)."""

    alpha: float = 0.0
    start: Sequence[float] | None = None
    alpha_grid: Sequence[float] | None = None
    tol_gradient: float = 1e-8
    max_iter: int = 200
    n_multistart: int = 5

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.tol_gradient <= 0.0 or self.max_iter < 1 or self.n_multistart < 1:
            raise ValueError("tolerances and iteration counts must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameter with its censoring-free sandwich covariance.

    sigma_hat estimates the covariance of sqrt(n)(theta_hat - theta0); the
    per-estimate covariance is sigma_hat / n.
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
        """Not-converged result for a fit that raised: NaN estimate and
        matrices, infinite residual and condition number."""
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


class _WeightedEquation:
    """Estimating equation and objective over fixed product-limit weights.

    The points are validated once here; every evaluation after that goes
    through the family's unvalidated closed forms.
    """

    def __init__(self, sample: CensoredSample, family: ParametricFamily, alpha: float):
        km = kmpl_fit(sample)
        self.points = family._check_x(km.weight_points)
        self.weights = km.weight_masses
        self.residual_mass = km.residual_mass
        self.family = family
        self.alpha = alpha

    def estimating(self, theta: np.ndarray, jacobian: bool = False):
        """g(theta) or, with ``jacobian``, (g, J_theta) from one pass."""
        fam, alpha = self.family, self.alpha
        logf, u, du = fam._pointwise(theta, self.points, 2 if jacobian else 1)
        if alpha == 0.0:
            # jvec and its theta-derivative vanish identically at alpha = 0
            wf, jvec, djvec = self.weights, 0.0, 0.0
        else:
            wf = self.weights * np.exp(alpha * logf)
            _, jvec, _, djvec = fam._integrals(theta, alpha, jacobian)
        g = jvec - wf @ u
        if not jacobian:
            return g
        p = g.size
        return g, djvec - (wf @ du.reshape(-1, p * p)).reshape(p, p) - alpha * (u.T * wf) @ u

    def objective(self, theta: np.ndarray) -> float:
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
        return value if np.isfinite(value) else np.inf

    # log-space views used by the solver; wild trial points are allowed to
    # overflow quietly and come back as NaN/inf for the damping logic
    def estimating_log(self, eta: np.ndarray, jacobian: bool = False):
        """g at theta = exp(eta) or, with ``jacobian``, (g, J_eta) where
        J_eta = J_theta diag(theta)."""
        theta = np.exp(eta)
        try:
            with np.errstate(all="ignore"):
                if not jacobian:
                    return self.estimating(theta)
                g, jac = self.estimating(theta, jacobian=True)
                return g, jac * theta
        except (ValueError, FloatingPointError):
            nan = np.full(eta.shape, np.nan)
            return (nan, np.full((eta.size,) * 2, np.nan)) if jacobian else nan

    def objective_log(self, eta: np.ndarray) -> float:
        try:
            with np.errstate(all="ignore"):
                value = self.objective(np.exp(eta))
        except (ValueError, FloatingPointError):
            return np.inf
        return value if np.isfinite(value) else np.inf

    def data_mass(self, eta: np.ndarray) -> float:
        """Weighted mean of f^alpha over the sample; a genuine root keeps it
        well away from zero, while boundary runaways (density collapsing to
        zero on all observations, making the equation trivially zero) do not.
        """
        try:
            with np.errstate(all="ignore"):
                logf = self.family._pointwise(np.exp(eta), self.points, 0)[0]
                return float(self.weights @ np.exp(self.alpha * logf))
        except (ValueError, FloatingPointError):
            return 0.0


def mdpde_objective(sample: CensoredSample, family: ParametricFamily, theta, alpha: float) -> float:
    """Product-limit-weighted divergence objective.

    For alpha > 0 this is xi_alpha(theta) - (1+alpha)/alpha * E_hat[f^alpha]
    plus the theta-free constant 1/alpha, which makes the map continuous in
    alpha; at alpha = 0 it is the weighted negative log-likelihood.
    """
    theta = family.validate(theta)
    return _WeightedEquation(sample, family, alpha).objective(theta)


def _norm(g: np.ndarray) -> float:
    """Euclidean norm of a residual; inf when it is not finite or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.linalg.norm(g))
    return value if np.isfinite(value) else np.inf


def _newton(eq: _WeightedEquation, eta0: np.ndarray, tol: float, max_iter: int):
    """Damped Newton from eta0 on the log-space estimating equation.

    Returns (eta, residual norm, iterations, converged).  A step that does
    not reduce the residual within 15 halvings, a singular or non-finite
    Jacobian, and a drift beyond _MAX_LOG_DRIFT from eta0 all end the
    trajectory as not converged.
    """
    eta = eta0
    g = eq.estimating_log(eta)
    if not np.all(np.isfinite(g)):
        return eta, np.inf, 0, False
    norm_g = _norm(g)
    for iteration in range(max_iter):
        if norm_g <= tol:
            return eta, norm_g, iteration, True
        g, jac = eq.estimating_log(eta, jacobian=True)
        if not np.all(np.isfinite(jac)):
            return eta, norm_g, iteration + 1, False
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            return eta, norm_g, iteration + 1, False
        big = np.max(np.abs(step))
        if big > 4.0:
            step *= 4.0 / big
        lam = 1.0
        for _ in range(15):
            trial = eta + lam * step
            trial_norm = _norm(eq.estimating_log(trial))
            if trial_norm < norm_g:
                eta, norm_g = trial, trial_norm
                break
            lam *= 0.5
        else:
            return eta, norm_g, iteration + 1, False
        if np.max(np.abs(eta - eta0)) > _MAX_LOG_DRIFT:
            return eta, norm_g, iteration + 1, False
    return eta, norm_g, max_iter, norm_g <= tol


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
    objective value is returned; failures fall back to simplex minimization
    with a Newton polish.  Non-convergence yields converged=False rather than
    an exception; a singular sensitivity matrix raises
    :class:`varest.SingularSensitivityError`.
    """
    config = config or FitConfig()
    alpha = config.alpha
    eq = _WeightedEquation(sample, family, alpha)
    if config.start is not None:
        start = family.validate(config.start)
    else:
        start = family.validate(_initial_theta(sample, family))
    eta0 = np.log(start)
    offsets = (_OFFSETS_1D if family.dim == 1 else _OFFSETS_2D)[: config.n_multistart - 1]
    reference_mass = eq.data_mass(eta0)

    candidates: list[tuple[float, np.ndarray, float, int, bool, str]] = []
    degenerate: list[tuple[float, np.ndarray, float, int, bool, str]] = []

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
                (eq.objective_log(eta), eta.copy(), residual, iters, False, f"{tag}-degenerate")
            )
            return False
        candidates.append((eq.objective_log(eta), eta.copy(), residual, iters, ok, tag))
        return ok

    eta, residual, iters, ok = _newton(eq, eta0, config.tol_gradient, config.max_iter)
    if add_candidate(eta, residual, iters, ok, "newton"):
        # screen alternative starts; only chase ones that undercut the root
        best_obj = min(c[0] for c in candidates)
        for off in offsets:
            eta_alt = eta0 + np.asarray(off)
            if eq.objective_log(eta_alt) < best_obj:
                eta2, res2, it2, ok2 = _newton(eq, eta_alt, config.tol_gradient, config.max_iter)
                if ok2:
                    add_candidate(eta2, res2, it2, ok2, "newton-restart")
    else:
        with np.errstate(invalid="ignore"):  # simplex may compare inf values
            nm = optimize.minimize(
                eq.objective_log,
                eta0,
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
            )
        eta2, res2, it2, ok2 = _newton(eq, nm.x, config.tol_gradient, config.max_iter)
        add_candidate(eta2, res2, iters + it2, ok2, "simplex+polish")
        for off in offsets:
            eta3, res3, it3, ok3 = _newton(eq, eta0 + np.asarray(off), config.tol_gradient, config.max_iter)
            if ok3:
                add_candidate(eta3, res3, it3, ok3, "newton-restart")

    pool = [c for c in candidates if c[4]] or candidates or degenerate
    obj, eta_hat, residual, iters, ok, tag = min(pool, key=lambda c: (c[0], c[2]))
    theta_hat = np.exp(eta_hat)

    lam = lambda_model(family, theta_hat, alpha)
    cov = varest.covariance_estimate(
        sample, lambda x, th: mdpde_psi(family, th, alpha, x), theta_hat, lam
    )
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
        message=tag if ok else f"{tag}: no root at tol {config.tol_gradient:g}",
    )


def fit_grid(
    sample: CensoredSample,
    family: ParametricFamily,
    alpha_grid: Sequence[float] | None = None,
    config: FitConfig | None = None,
) -> list[FitResult]:
    """Sequential fits over an ascending alpha grid, warm-starting each alpha
    from the previous estimate; per-alpha failures do not abort the sweep."""
    config = config or FitConfig()
    grid = list(alpha_grid if alpha_grid is not None else (config.alpha_grid or ()))
    if not grid:
        raise ValueError("alpha_grid must contain at least one value")
    if any(b < a for a, b in zip(grid, grid[1:])) or grid[0] < 0.0:
        raise ValueError("alpha_grid must be ascending and nonnegative")
    if config.start is not None:
        family.validate(config.start)
    results: list[FitResult] = []
    start = config.start
    for alpha in grid:
        step_config = dataclasses.replace(config, alpha=float(alpha), start=start)
        try:
            result = fit(sample, family, step_config)
        except (varest.SingularSensitivityError, ValueError, np.linalg.LinAlgError) as exc:
            # per-alpha failure (singular sandwich, non-integrable f^(1+a) at
            # a runaway estimate, ...): record it, keep sweeping from the
            # last good start
            results.append(FitResult.failed(family, sample.n, alpha, str(exc)))
            continue
        results.append(result)
        if result.converged:
            start = tuple(result.theta_hat)
    return results
