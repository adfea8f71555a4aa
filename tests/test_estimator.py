import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize, special

from robustsurv import (
    CensoredSample,
    EXPONENTIAL,
    FamilySpec,
    FitConfig,
    FitResult,
    SingularSensitivityError,
    SyntheticDesign,
    UnidentifiableSampleError,
    WEIBULL,
    covariance_estimate,
    fit,
    fit_grid,
    if_estimator,
    kmpl_fit,
    lambda_model,
    mdpde_psi,
    simulate,
)
from robustsurv import estimator
from robustsurv.estimator import (
    _MAX_LOG_DRIFT,
    _STALL_STEPS,
    _bracketed_newton,
    _certified,
    _descent_direction,
    _initial_theta,
    _Point,
    _profile_root,
    _start_eta,
    _trajectory,
    _WeightedEquation,
)


def uncensored(z):
    z = np.asarray(z, dtype=float)
    return CensoredSample(z, np.ones(z.size, dtype=np.int8))


def fused_pass(eq, theta):
    """The fit's fused pass (H, g, J_theta, s0) at p parameter values."""
    return eq.family._equation([float(v) for v in theta], eq.alpha, eq.prepared, eq.weights)


def objective_at(eq, theta) -> float:
    """H(theta) from the fused pass; inf where it overflows or is not finite."""
    try:
        value = fused_pass(eq, theta)[0]
    except ArithmeticError:
        return math.inf
    return value if math.isfinite(value) else math.inf


class ScriptedEquation:
    """A stand-in equation for the trajectories, p = 2 with an inert second
    coordinate: at eta its residual is g = (-step, 0), and J_eta is the
    identity for Newton and diag(1 + step, 1) for the descent, so that every
    step of either moves eta by (step, 0); |g| and the objective are the
    given functions of eta[0]."""

    alpha = 0.0

    def __init__(self, step, norm, value=lambda e: 0.0, descent=False):
        self.step, self.norm, self.value = step, norm, value
        self.jac = ((1.0 + step, 0.0), (0.0, 1.0)) if descent else ((1.0, 0.0), (0.0, 1.0))

    def point(self, eta):
        e, other = eta
        return _Point((e, other), self.value(e), (-self.step, 0.0), self.jac, self.norm(e), 1.0)


@pytest.fixture(scope="module")
def exp_sample():
    rng = np.random.default_rng(42)
    return uncensored(rng.exponential(2.0, 300))


@pytest.fixture(scope="module")
def weibull_censored(weibull_design):
    return simulate(weibull_design, 400)


class TestObjective:
    def test_alpha_zero_is_weighted_negative_loglik(self, exp_sample):
        theta = [1.7]
        got = objective_at(_WeightedEquation(exp_sample, EXPONENTIAL, 0.0), theta)
        expected = -np.mean(EXPONENTIAL.logpdf(theta, exp_sample.z))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_continuous_in_alpha(self, exp_sample):
        theta = [2.1]
        limit = objective_at(_WeightedEquation(exp_sample, EXPONENTIAL, 0.0), theta)
        gaps = [
            abs(objective_at(_WeightedEquation(exp_sample, EXPONENTIAL, a), theta) - limit)
            for a in (1e-3, 1e-4, 1e-5)
        ]
        assert gaps[0] < 5e-3
        # O(alpha) decay
        assert gaps[1] < 0.15 * gaps[0]
        assert gaps[2] < 0.15 * gaps[1]

    def test_local_minimum_property(self, exp_sample):
        result = fit(exp_sample, EXPONENTIAL, FitConfig(alpha=0.5))
        eq = _WeightedEquation(exp_sample, EXPONENTIAL, 0.5)
        base = objective_at(eq, result.theta_hat)
        rng = np.random.default_rng(0)
        for _ in range(50):
            perturbed = result.theta_hat * np.exp(rng.normal(0, 0.3))
            assert objective_at(eq, perturbed) >= base

    def test_gradient_matches_estimating_equation(self, weibull_censored):
        # grad objective = (1+alpha) * estimating equation
        eq = _WeightedEquation(weibull_censored, WEIBULL, 0.4)
        theta = np.array([2.1, 4.7])
        grad_fd = np.empty(2)
        for j in range(2):
            h = 1e-6 * (1 + theta[j])
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            grad_fd[j] = (objective_at(eq, up) - objective_at(eq, down)) / (2 * h)
        np.testing.assert_allclose(grad_fd, 1.4 * np.array(fused_pass(eq, theta)[1]), rtol=1e-5, atol=1e-9)


def contaminated_design(seed):
    """Criterion 2's contaminated design: Weibull(2, 5) lifetimes, 5%
    Exp(5) outliers, 10% exponential censoring."""
    return SyntheticDesign(
        lifetime=FamilySpec("weibull", (2.0, 5.0)),
        censoring_mean=17.4,
        contamination_fraction=0.05,
        contamination=FamilySpec("exp", (5.0,)),
        seed=seed,
    )


@lru_cache(maxsize=None)
def jacobian_sample(contaminated):
    if contaminated:
        return simulate(contaminated_design(2024), 100, replication=0)
    design = SyntheticDesign(
        lifetime=FamilySpec("weibull", (2.0, 5.0)), censoring_mean=17.4, seed=2024
    )
    return simulate(design, 100, replication=0)


def central_jacobian(func, x, steps):
    """Central-difference Jacobian of func at x, one step per coordinate."""
    columns = []
    for j, h in enumerate(steps):
        shift = np.zeros(x.size)
        shift[j] = h
        columns.append((func(x + shift) - func(x - shift)) / (2.0 * h))
    return np.column_stack(columns)


def objective_minimum(sample, alpha, scale_range, shape_range):
    """Oracle: Weibull minimiser of the divergence objective, from the best
    point of a 120 x 80 grid, log-spaced over the given ranges, polished by
    Nelder-Mead."""
    eq = _WeightedEquation(sample, WEIBULL, alpha)

    def objective(eta):
        try:
            with np.errstate(all="ignore"):
                return objective_at(eq, np.exp(eta))
        except ValueError:  # f^(1+alpha) not integrable
            return np.inf

    log_scale = np.linspace(*np.log(scale_range), 120)
    log_shape = np.linspace(*np.log(shape_range), 80)
    values = np.array([[objective(np.array([a, b])) for b in log_shape] for a in log_scale])
    i, j = np.unravel_index(np.argmin(values), values.shape)
    polished = optimize.minimize(
        objective, [log_scale[i], log_shape[j]], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    return np.exp(polished.x)


class TestExactJacobian:
    """The solver's closed-form Jacobian against central differences of the
    estimating equation, in theta and in the solver's log coordinates: the
    Weibull's, as no exponential fit solves with a Jacobian."""

    @given(
        contaminated=st.booleans(),
        alpha=st.floats(0.0, 1.0),
        log_offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @example(contaminated=True, alpha=0.0, log_offset=(0.3, -0.4))
    def test_matches_central_differences(self, contaminated, alpha, log_offset):
        eq = _WeightedEquation(jacobian_sample(contaminated), WEIBULL, alpha)
        eta = np.log([2.0, 5.0]) + np.array(log_offset)
        theta = np.exp(eta)

        g, jac = (np.array(v) for v in fused_pass(eq, theta)[1:3])
        fd = central_jacobian(lambda th: np.array(fused_pass(eq, th)[1]), theta, 1e-5 * theta)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(jac).max())

        at = eq.point(eta)
        g_log, jac_log = np.array(at.g), np.array(at.jac)
        np.testing.assert_array_equal(g_log, g)
        g_of_eta = lambda e: np.array(eq.point(e).g)
        fd_log = central_jacobian(g_of_eta, eta, np.full(eta.size, 1e-5))
        np.testing.assert_allclose(
            jac_log, fd_log, rtol=1e-6, atol=1e-6 * np.abs(jac_log).max()
        )


class TestFusedPass:
    """The solver's fused (g, J) against an assembly from the public score,
    logpdf and weighted_integrals over the product-limit weights (the
    exponential's pass forms g alone)."""

    @given(
        family=st.sampled_from([EXPONENTIAL, WEIBULL]),
        contaminated=st.booleans(),
        alpha=st.floats(0.0, 1.0),
        log_offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )
    @example(family=WEIBULL, contaminated=True, alpha=0.0, log_offset=(0.0, 0.0))
    @example(family=EXPONENTIAL, contaminated=True, alpha=0.0, log_offset=(1.0, 0.0))
    @example(family=WEIBULL, contaminated=False, alpha=1.0, log_offset=(-2.0, 2.0))
    def test_matches_public_assembly(self, family, contaminated, alpha, log_offset):
        sample = jacobian_sample(contaminated)
        theta = np.array([2.0, 5.0][: family.dim]) * np.exp(log_offset[: family.dim])
        km = kmpl_fit(sample)
        x, mass = km.weight_points, km.weight_masses

        def parts(th):
            """jvec, u and the weights mass_i f_i^alpha at th."""
            weights = mass * np.exp(alpha * family.logpdf(th, x))
            return family.weighted_integrals(th, alpha).jvec, family.score(th, x), weights

        jvec, u, weights = parts(theta)
        terms = weights[:, None] * u
        g, jac = fused_pass(_WeightedEquation(sample, family, alpha), theta)[1:3]
        scale = max(np.abs(jvec).max(), np.abs(terms).sum(axis=0).max())
        np.testing.assert_allclose(g, jvec - terms.sum(axis=0), rtol=1e-12, atol=1e-12 * scale)
        if family is EXPONENTIAL:  # a 1-D root, whose pass forms no Jacobian
            assert jac is None
            return

        # J = d jvec / d theta - sum_i mass_i f_i^alpha (grad u_i + alpha u_i u_i^T),
        # the theta-derivatives by central differences of the public pieces
        d_jvec, d_u = [], []
        for j, h in enumerate(1e-6 * theta):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            (j_up, u_up, _), (j_down, u_down, _) = parts(up), parts(down)
            d_jvec.append((j_up - j_down) / (2.0 * h))
            d_u.append((u_up - u_down) / (2.0 * h))
        expected = (
            np.column_stack(d_jvec)
            - np.einsum("i,jik->kj", weights, np.array(d_u))
            - alpha * (u.T * weights) @ u
        )
        np.testing.assert_allclose(jac, expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max())

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("family", [EXPONENTIAL, WEIBULL], ids=["exp", "weibull"])
    def test_reused_buffer_leaks_no_state(self, family, alpha):
        # each pass overwrites the rows _prepare allocated for its equation:
        # passes at theta1, theta2, theta1 repeat the bits of a fresh one,
        # and no two equations on one sample share that buffer
        sample = jacobian_sample(True)
        theta1, theta2 = (np.array(v[: family.dim]) for v in ([2.0, 5.0], [3.5, 1.2]))
        eq = _WeightedEquation(sample, family, alpha)
        first, between, again = (fused_pass(eq, th) for th in (theta1, theta2, theta1))
        other = _WeightedEquation(sample, family, alpha)
        assert first == again == fused_pass(other, theta1) and between != first
        mine, theirs = (
            [p] if isinstance(p, np.ndarray) else list(p) for p in (eq.prepared, other.prepared)
        )
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    @pytest.mark.parametrize("contaminated", [False, True])
    @pytest.mark.parametrize("theta", [(2.0, 5.0), (3.5, 1.2), (0.4, 9.0)])
    def test_alpha_zero_weibull_pass_matches_the_eight_row_oracle(self, contaminated, theta):
        # at alpha = 0 the pass leaves the alpha-only rows 5-7 at zero; its
        # (H, g, J, s0) must keep the bits of the reduction of all eight rows
        sample = jacobian_sample(contaminated)
        km = kmpl_fit(sample)
        sigma, b = theta
        t = np.log(km.weight_points) - math.log(sigma)
        w = np.exp(b * t)
        wm1, tw = w - 1.0, t * w
        twm1 = t * wm1
        rows = np.stack((np.ones_like(t), wm1, twm1, tw, t * tw, wm1 * wm1, twm1 * wm1, twm1 * twm1))
        s0, s1, s2, s3, s4, s5, s6, s7 = (rows @ km.weight_masses).tolist()
        r, bb = b / sigma, b * b
        j_sb = 0.0 - (s1 + b * s3) / sigma - 0.0 * (s1 / sigma - r * s6)
        expected = (
            -(math.log(b / sigma) * s0 + (b - 1.0) * (s3 - s2) - s1 - s0),
            (0.0 - r * s1, 0.0 - s0 / b + s2),
            (
                (0.0 + (r / sigma) * s1 + r * r * (s1 + s0 - 0.0 * s5), j_sb),
                (j_sb, 0.0 + s0 / bb + s4 - 0.0 * (s0 / bb - 2.0 * s2 / b + s7)),
            ),
            s0,
        )
        eq = _WeightedEquation(sample, WEIBULL, 0.0)
        assert repr(fused_pass(eq, theta)) == repr(expected)
        assert not eq.prepared[1][5:].any()


class TestSolver:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_trial_residuals_stay_quiet(self):
        # replication 40 of the mc_contaminated benchmark workload at seed 7
        # (design seed SeedSequence([7, 40]).generate_state(1)[0]): damped
        # Newton steps of the alpha = 0 fit try points whose residual norm
        # overflows; they must count as rejected steps, not warn
        sample = simulate(contaminated_design(3928868563), 100, replication=0)
        results = fit_grid(sample, WEIBULL, [0.0, 0.5])
        assert all(r.converged for r in results)

    def test_runaway_trajectory_stopped_early(self):
        # replication 7 of the same workload: from the default start, Newton
        # at alpha = 0.5 runs off to scale -> inf with shape -> alpha/(1+alpha),
        # where f^(1+alpha) stops being integrable; without the drift and
        # stall stops it takes 75 iterations, out to scale 3e27, before the
        # line search fails (the stall stop ends it at iteration 8, drift 5.2)
        sample = simulate(contaminated_design(1750529956), 100, replication=0)
        eq = _WeightedEquation(sample, WEIBULL, 0.5)
        eta0 = np.log(_initial_theta(sample, WEIBULL))
        _, iters, ok = _trajectory(eq, eq.point(eta0), 1e-8, 200, False)
        assert not ok
        assert iters < 50
        # the fit still finds the root through its fallback
        assert fit(sample, WEIBULL, FitConfig(alpha=0.5)).converged

    def test_drift_stop_ends_a_runaway_that_lowers_the_residual(self):
        # a trajectory that halves |g| at every step is not stalled, but one
        # that moves eta by 4 per step passes the drift bound at step 6
        eq = ScriptedEquation(4.0, lambda e: 0.5 ** (e / 4.0))
        end, iters, ok = _trajectory(eq, eq.point((0.0, 0.0)), 1e-8, 200, False)
        assert not ok
        assert iters == 6 and end.eta[0] > _MAX_LOG_DRIFT and end.eta[1] == 0.0

    def test_root_above_its_start_is_not_converged(self):
        # a step to |g| = 0 whose objective is above the start's is a
        # boundary pseudo-root, not a root; the same step without the rise
        # converges
        for rises, converged in ((1e-6, False), (0.0, True)):
            eq = ScriptedEquation(1.0, lambda e: max(1.0 - 2.0 * e, 0.0), lambda e: rises * e)
            end, iters, ok = _trajectory(eq, eq.point((0.0, 0.0)), 1e-8, 200, False)
            assert ok is converged and iters == 1 and end.norm == 0.0

    def test_stall_stop_only_where_asked(self):
        # |g| falling by 10 % per step, which is 0.59 over five steps: Newton
        # stops as stalled, while the descent, which has no stall stop, runs
        # the same crawl to max_iter
        crawl = lambda e: 0.9 ** round(e / 0.01)
        eq = ScriptedEquation(0.01, crawl)
        _, iters, ok = _trajectory(eq, eq.point((0.0, 0.0)), 1e-300, 100, False)
        assert not ok and iters == _STALL_STEPS
        eq = ScriptedEquation(0.01, crawl, descent=True)
        end, iters, ok = _trajectory(eq, eq.point((0.0, 0.0)), 1e-300, 100, True)
        assert not ok and iters == 100 and end.eta[0] == pytest.approx(1.0) and end.eta[1] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("family", [EXPONENTIAL, WEIBULL], ids=["exp", "weibull"])
    def test_extreme_trial_points_are_rejected_not_raised(self, weibull_censored, family, alpha):
        # the solver's evaluations on trial points out to theta = 0 and inf:
        # overflow, division by zero and log(0) must come back as values the
        # damping logic rejects, never as an exception or a warning; the
        # exponential's pass, in r = x / theta, forms no Jacobian and gives
        # the finite limit g = 0 at theta = inf, where no exponential fit
        # evaluates (each is a 1-D solve that passes only at its end)
        eq = _WeightedEquation(weibull_censored, family, alpha)
        p = family.dim
        for eta in itertools.product((-800.0, -40.0, 0.0, 40.0, 800.0), repeat=p):
            eta = np.array(eta)
            with np.errstate(all="ignore"):  # as fit() sets for its solve
                at = eq.point(eta)
                g = g_j = np.array(at.g)
                jac = at.jac
                value = at.value
                mass = at.mass
            assert g.shape == g_j.shape == (p,) and (p == 1 or np.shape(jac) == (p, p))  # no J for the exponential
            assert not np.isnan(value) and value > -np.inf
            if np.max(np.abs(eta)) == 800.0:  # some coordinate is 0 or inf
                if p == 2 or eta[0] < 0.0:
                    assert not np.all(np.isfinite(g)) and not np.all(np.isfinite(g_j))
                if p == 2:
                    assert not np.all(np.isfinite(jac))
                # never counted as density mass for alpha > 0 (0.0, or NaN
                # for an evaluation that raised); at alpha = 0 the mass
                # sum_i w_i f_i^0 is the total weight, which the solver
                # never consults
                assert not mass > 0.0 or (alpha == 0.0 and mass == pytest.approx(1.0))
            if np.min(eta) == -800.0:  # density not defined at theta = 0
                assert value == np.inf

    def test_descent_fallback_after_failed_newton(self):
        # the cold alpha = 0.5 fit of this contaminated sample: residual
        # Newton from the default start runs off towards scale -> inf (without
        # the stall stop it drifts to scale 1.7e9 in 24 iterations; the stall
        # stop ends it at 8, scale 1.1e3 and shape 0.41); descent on the
        # objective from the same start finds the minimiser
        sample = simulate(contaminated_design(2102126363), 100, replication=0)
        eq = _WeightedEquation(sample, WEIBULL, 0.5)
        eta0 = _start_eta(WEIBULL, _initial_theta(sample, WEIBULL), 0.5)
        _, iters, ok = _trajectory(eq, eq.point(eta0), 1e-8, 200, False)
        assert not ok and iters <= 15
        result = fit(sample, WEIBULL, FitConfig(alpha=0.5))
        assert result.converged and result.message == "descent"
        np.testing.assert_allclose(result.theta_hat, [1.90054, 5.09563], atol=1e-5)
        oracle = objective_minimum(sample, 0.5, (1e-2, 1e3), (0.35, 20.0))
        np.testing.assert_allclose(result.theta_hat, oracle, rtol=1e-6)

    def test_no_trajectory_evaluates_a_point_twice(self, monkeypatch):
        # the cold alpha = 0.5 fit of test_descent_fallback_after_failed_newton
        # takes both trajectories; every family evaluation is recorded under
        # the trajectory making it, the shared start's under the first entry
        sample = simulate(contaminated_design(2102126363), 100, replication=0)
        trajectories = [[]]

        def recorded(solver):
            def run(*args):
                trajectories.append([])
                return solver(*args)

            return run

        monkeypatch.setattr(estimator, "_trajectory", recorded(estimator._trajectory))
        fused = type(WEIBULL)._equation

        def equation(self, theta, *args):
            trajectories[-1].append(tuple(np.log(theta)))
            return fused(self, theta, *args)

        monkeypatch.setattr(type(WEIBULL), "_equation", equation)
        result = fit(sample, WEIBULL, FitConfig(alpha=0.5))
        assert result.converged and result.message == "descent"
        start, *runs = trajectories
        assert len(start) == 1 and len(runs) == 2 and all(runs)
        etas = [eta for etas in trajectories for eta in etas]
        assert len(set(etas)) == len(etas)


class TestDescentDirection:
    """The closed-form descent step -|S|^-1 grad against an np.linalg.eigh
    oracle, S the symmetric part of diag(theta) J_eta plus diag(grad)."""

    @staticmethod
    def oracle(eta, g, jac):
        theta = np.exp(eta)
        grad = theta * np.array(g)
        hess = theta[:, None] * np.array(jac)
        eigval, eigvec = np.linalg.eigh(0.5 * (hess + hess.T) + np.diag(grad))
        return -eigvec @ ((eigvec.T @ grad) / np.abs(eigval)), grad

    @pytest.mark.parametrize(
        "eta, g, jac",
        [
            # indefinite, eigenvalues of both signs
            ((0.3, -1.2), (0.7, -2.0), ((1.5, 4.0), (2.5, -3.0))),
            ((2.0, 0.5), (-1e-3, 3e-3), ((-0.8, 0.1), (0.3, 0.05))),
            # negative definite
            ((0.0, 0.0), (1.0, 1.0), ((-5.0, 1.0), (1.0, -2.0))),
            # positive definite near a root (g small)
            ((0.69, 1.6), (1e-9, -2e-9), ((0.9, 0.2), (0.25, 1.3))),
            # near-singular: eigenvalue ratios 1e-3 and 1e-4
            ((0.0, 0.0), (1.0, -0.5), ((1.0, 1.0), (1.0, 1.001))),
            ((0.0, 0.0), (1.0, 2.0), ((1.0, 0.5), (0.5, 0.2501))),
            # entries whose squares overflow or underflow
            ((0.0, 0.0), (1e150, -3e150), ((2e160, 1e159), (1e159, -3e160))),
            ((0.0, 0.0), (1e-160, 3e-160), ((2e-170, 1e-171), (1e-171, 5e-170))),
        ],
    )
    def test_matches_eigh(self, eta, g, jac):
        direction, grad = _descent_direction(eta, g, jac)
        expected, expected_grad = self.oracle(eta, g, jac)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-15)
        np.testing.assert_allclose(direction, expected, rtol=1e-12, atol=0)

    @given(
        eigenvalues=st.tuples(
            st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.booleans(), st.booleans()
        ),
        angle=st.floats(0.0, math.pi),
        skew=st.floats(-10.0, 10.0),
        g=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        eta=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    )
    def test_matches_eigh_on_drawn_hessians(self, eigenvalues, angle, skew, g, eta):
        # S = R diag(l1, l2) R^T with |l1|, |l2| in [0.01, 100], either sign;
        # J_eta is whatever gives that S after the diag(theta) scaling and
        # the diag(grad) shift, plus a skew part that the symmetrization drops
        l1, l2, neg1, neg2 = eigenvalues
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        target = rot @ np.diag([-l1 if neg1 else l1, -l2 if neg2 else l2]) @ rot.T
        theta = np.exp(eta)
        hess = target - np.diag(theta * np.array(g)) + np.array([[0.0, skew], [-skew, 0.0]])
        jac = tuple(map(tuple, (hess / theta[:, None]).tolist()))
        direction, _ = _descent_direction(eta, g, jac)
        expected, _ = self.oracle(eta, g, jac)
        np.testing.assert_allclose(direction, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize(
        "eta, g, jac",
        [
            ((0.0, 0.0), (0.0, 0.0), ((1.0, 1.0), (1.0, 1.0))),  # singular S
            ((0.0, 0.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))),  # S = 0
            ((0.0, 0.0), (1.0, 1.0), ((math.inf, 0.0), (0.0, 1.0))),
        ],
    )
    def test_no_step_where_s_is_singular_or_not_finite(self, eta, g, jac):
        assert _descent_direction(eta, g, jac) is None


def profile_oracle(sample):
    """Oracle of the alpha = 0 Weibull fit: scipy's brentq root of h(b) = 1/b
    + sum w log z / sum w - sum w z^b log z / sum w z^b over the product-limit
    weights, then sigma^b = sum w z^b / sum w."""
    km = kmpl_fit(sample)
    mass, logz = km.weight_masses, np.log(km.weight_points)

    def h(b):
        return 1.0 / b + mass @ logz / mass.sum() - special.softmax(b * logz + np.log(mass)) @ logz

    hi = 1.0
    while h(hi) > 0.0:
        hi *= 2.0
    b = optimize.brentq(h, 1e-3, hi, xtol=1e-300, rtol=8.9e-16, maxiter=500)
    return np.array([math.exp((special.logsumexp(b * logz, b=mass) - math.log(mass.sum())) / b), b])


class TestProfile:
    """alpha = 0: the exponential mean in closed form and the Weibull shape as
    the root of its profile equation, then the scale in closed form."""

    @pytest.mark.parametrize("arm", ["A", "B"])
    def test_veteran_arms_match_brentq(self, veteran, arm):
        result = fit(veteran[arm], WEIBULL, FitConfig(alpha=0.0))
        assert result.converged and result.message == "profile"
        np.testing.assert_allclose(result.theta_hat, profile_oracle(veteran[arm]), rtol=1e-13, atol=0)

    def test_contaminated_samples_match_brentq(self):
        # criterion 2's contaminated design: no fit needs more than 10
        # profile iterations
        for k in range(200):
            sample = simulate(contaminated_design(2024), 100, replication=k)
            result = fit(sample, WEIBULL, FitConfig(alpha=0.0))
            assert result.converged and result.message == "profile" and result.n_iter <= 10
            np.testing.assert_allclose(result.theta_hat, profile_oracle(sample), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("start", [None, (1e12,), (1e-12,)])
    def test_exponential_closed_form(self, weibull_design, start):
        # the product-limit-weighted mean, in no iteration, whatever the start
        sample = simulate(weibull_design, 100)
        km = kmpl_fit(sample)
        result = fit(sample, EXPONENTIAL, FitConfig(alpha=0.0, start=start))
        assert result.converged and result.message == "profile" and result.n_iter == 0
        mean = km.weight_masses @ km.weight_points / km.weight_masses.sum()
        assert mean == pytest.approx(1.83, abs=0.005)
        assert result.theta_hat[0] == pytest.approx(mean, rel=1e-15)

    @pytest.mark.parametrize("family, start", [(EXPONENTIAL, (-1.0,)), (EXPONENTIAL, (1.0, 2.0)), (WEIBULL, (2.0, 0.0))])
    def test_malformed_start_rejected_as_for_alpha_above_zero(self, weibull_censored, family, start):
        for alpha in (0.0, 0.5):
            with pytest.raises(ValueError, match="parameter"):
                fit(weibull_censored, family, FitConfig(alpha=alpha, start=start))

    def test_explicit_weibull_start_far_from_the_data(self, weibull_design):
        sample = simulate(weibull_design, 100)
        result = fit(sample, WEIBULL, FitConfig(alpha=0.0, start=(1e12, 1.0)))
        assert result.converged and result.message == "profile"
        np.testing.assert_array_equal(result.theta_hat, fit(sample, WEIBULL).theta_hat)
        np.testing.assert_allclose(result.theta_hat, profile_oracle(sample), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("family", [EXPONENTIAL, WEIBULL], ids=["exp", "weibull"])
    def test_certificate_judges_the_root(self, weibull_censored, family, monkeypatch):
        # the root is exact, yet converged still comes from |g| at one fused
        # pass there (the exponential's is 0): a tolerance that no |g| meets
        # reports no root
        monkeypatch.setattr(estimator, "_TOL_GRADIENT", -1.0)
        result = fit(weibull_censored, family)
        assert not result.converged and result.message == "profile: no root at tol -1"
        assert 0.0 <= result.eqn_residual < 1e-12 and np.isnan(result.sigma_hat).all()

    @given(
        family=st.sampled_from([EXPONENTIAL, WEIBULL]),
        contaminated=st.booleans(),
        log_c=st.floats(math.log(1e-4), math.log(1e4)),
    )
    @example(family=WEIBULL, contaminated=True, log_c=math.log(1e-4))
    @example(family=WEIBULL, contaminated=False, log_c=math.log(1e4))
    def test_unit_equivariance(self, family, contaminated, log_c):
        # z -> c z: the scale follows c, the shape stays, and so does converged
        sample, c = jacobian_sample(contaminated), math.exp(log_c)
        base = fit(sample, family)
        scaled = fit(CensoredSample(sample.z * c, sample.delta), family)
        assert scaled.converged == base.converged
        np.testing.assert_allclose(scaled.theta_hat, base.theta_hat * [c, 1.0][: family.dim], rtol=1e-12, atol=0)


def k_oracle(sample, alpha, lo, hi):
    """Oracle of the exponential fit: scipy's brentq root, in y = log theta
    over [log lo, log hi], of k = sum w (1 - r) e^(-alpha r) - alpha / (1 +
    alpha)^2, r = z / theta, over the product-limit weights."""
    km = kmpl_fit(sample)
    mass, z = km.weight_masses, km.weight_points

    def k(y):
        r = z / math.exp(y)
        return float(mass @ ((1.0 - r) * np.exp(-alpha * r))) - alpha / (1.0 + alpha) ** 2

    return math.exp(optimize.brentq(k, math.log(lo), math.log(hi), xtol=1e-15, rtol=8.9e-16, maxiter=500))


def outlier_probe(outlier):
    """49 Exp(5) draws and one outlying point, all events."""
    return uncensored(np.append(np.random.default_rng(1).exponential(5.0, 49), outlier))


class TestExponentialRoot:
    """The exponential at every alpha: one bracketed 1-D solve in y = log
    theta of k = theta^(1+alpha) g, which depends on the data only through r
    = z / theta, so the estimate follows any change of time unit."""

    @pytest.mark.parametrize("outlier", [1e4, 1e6, 1e8])
    def test_one_outlier_leaves_the_robust_root(self, outlier):
        # k changes sign once, near 5.8; the outlier's term underflows to 0
        sample = outlier_probe(outlier)
        result = fit(sample, EXPONENTIAL, FitConfig(alpha=0.5))
        assert result.converged and result.message == "profile"
        oracle = k_oracle(sample, 0.5, 1.0, 100.0)
        assert oracle == pytest.approx(5.800975936934, rel=1e-12)
        assert result.theta_hat[0] == pytest.approx(oracle, rel=1e-12)

    def test_four_points_with_an_outlier(self):
        sample = uncensored([9.4e6, 12.8, 15.2, 16.6])
        result = fit(sample, EXPONENTIAL, FitConfig(alpha=0.5))
        assert result.converged
        oracle = k_oracle(sample, 0.5, 1.0, 1000.0)
        assert oracle == pytest.approx(24.69985061246, rel=1e-12)
        assert result.theta_hat[0] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("alpha, root", [(0.5, 123.4335713511), (1.0, 118.9275659756)])
    @pytest.mark.parametrize("unit", [1.0, 24.0, 86400.0], ids=["days", "hours", "seconds"])
    def test_veteran_arm_a_in_any_unit(self, veteran, alpha, root, unit):
        arm = veteran["A"]
        sample = CensoredSample(arm.z * unit, arm.delta)
        result = fit(sample, EXPONENTIAL, FitConfig(alpha=alpha))
        assert result.converged and result.message == "profile" and result.n_iter > 0
        oracle = k_oracle(arm, alpha, 50.0, 300.0)
        assert oracle == pytest.approx(root, rel=1e-12)
        assert result.theta_hat[0] / unit == pytest.approx(oracle, rel=1e-12)

    @given(
        which=st.sampled_from(["clean", "contaminated", "veteran A"]),
        alpha=st.floats(0.0, 1.0),
        log_c=st.floats(math.log(1e-8), math.log(1e8)),
    )
    @example(which="veteran A", alpha=0.5, log_c=math.log(24.0))
    @example(which="veteran A", alpha=1.0, log_c=math.log(86400.0))
    @example(which="contaminated", alpha=1.0, log_c=math.log(1e-8))
    def test_unit_equivariance(self, veteran, which, alpha, log_c):
        # z -> c z: the mean follows c, and converged stays
        sample = veteran["A"] if which == "veteran A" else jacobian_sample(which == "contaminated")
        c = math.exp(log_c)
        base = fit(sample, EXPONENTIAL, FitConfig(alpha=alpha))
        scaled = fit(CensoredSample(sample.z * c, sample.delta), EXPONENTIAL, FitConfig(alpha=alpha))
        assert base.converged and scaled.converged == base.converged
        assert scaled.theta_hat[0] == pytest.approx(c * base.theta_hat[0], rel=1e-12)

    def test_no_trajectory_runs(self, weibull_censored, monkeypatch):
        def refuse(*args):
            raise AssertionError("an exponential fit ran the 2-D solver")

        for name in ("_trajectory", "_descent_direction", "_root_from"):
            monkeypatch.setattr(estimator, name, refuse)
        for alpha in (0.0, 0.5, 1.0):
            for start in (None, (1e-3,), (1e3,)):
                result = fit(weibull_censored, EXPONENTIAL, FitConfig(alpha=alpha, start=start))
                assert result.converged and result.message == "profile"
        assert all(r.converged for r in fit_grid(weibull_censored, EXPONENTIAL, [0.0, 0.5, 1.0]))

    @pytest.mark.parametrize("start", [(1e-12,), (1e12,)])
    def test_any_start_reaches_the_root(self, weibull_censored, start):
        # the first steps run _MAX_LOG_STEP towards the root until its sign
        # changes, then Newton stays in the bracket
        cold = fit(weibull_censored, EXPONENTIAL, FitConfig(alpha=0.5))
        result = fit(weibull_censored, EXPONENTIAL, FitConfig(alpha=0.5, start=start))
        assert result.converged and result.n_iter > cold.n_iter
        assert result.theta_hat[0] == pytest.approx(cold.theta_hat[0], rel=1e-14)

    def test_exact_root_in_tiny_units_is_certified(self):
        # the alpha = 0 mean is exact in any unit; in units of 1e-300 its
        # Lambda, 1 / theta^2, is no float, so the fit cannot form a sandwich
        for unit in (1e-150, 1e-300):
            sample = uncensored(np.array([1.0, 2.0, 3.0]) * unit)
            eq = _WeightedEquation(sample, EXPONENTIAL, 0.0)
            with np.errstate(all="ignore"):
                end, iters = _profile_root(eq, None)
                assert _certified(eq, end) and iters == 0
            assert math.exp(end.eta[0]) == pytest.approx(2.0 * unit, rel=1e-15)
        result = fit(uncensored([1e-150, 2e-150, 3e-150]), EXPONENTIAL)
        assert result.converged and result.theta_hat[0] == pytest.approx(2e-150, rel=1e-15)
        with pytest.raises(SingularSensitivityError, match="cond=inf"):
            fit(uncensored([1e-300, 2e-300, 3e-300]), EXPONENTIAL)


class TestOneHugeTime:
    """[1e300, 1, 2], all events: every fit ends as documented, and none
    warns (Tier-1 turns warnings into errors)."""

    sample = uncensored([1e300, 1.0, 2.0])

    @pytest.mark.parametrize("family", [EXPONENTIAL, WEIBULL], ids=["exp", "weibull"])
    def test_alpha_zero_has_no_sandwich(self, family):
        # the exponential's Lambda underflows to 0 at the mean 3.3e299; the
        # Weibull's closed forms overflow at its root (8.5e174, 0.0031)
        with pytest.raises(SingularSensitivityError, match="cond=inf"):
            fit(self.sample, family)

    def test_exponential_alpha_half_converges(self):
        result = fit(self.sample, EXPONENTIAL, FitConfig(alpha=0.5))
        assert result.converged and np.isfinite(result.sigma_hat).all()
        oracle = k_oracle(self.sample, 0.5, 1.0, 10.0)
        assert oracle == pytest.approx(2.604832346999, rel=1e-12)
        assert result.theta_hat[0] == pytest.approx(oracle, rel=1e-12)

    def test_weibull_alpha_half_finds_no_root(self):
        result = fit(self.sample, WEIBULL, FitConfig(alpha=0.5))
        assert not result.converged and result.message.endswith(": no root at tol 1e-08")


class TestBracketedNewton:
    def test_open_side_step_towards_the_root(self):
        # a step that points away from the root while the bracket is open on
        # the root's side goes _MAX_LOG_STEP towards it; once bracketed, the
        # bisection ends at adjacent floats
        ys = []

        def newton(y):
            ys.append(y)
            return 10.0 - y, -1.0, y

        y, state, iterations = _bracketed_newton(newton, 0.0)
        assert ys[:4] == [0.0, 4.0, 8.0, 12.0] and state == y and iterations == len(ys)
        assert abs(y - 10.0) <= 2e-15

    def test_newton_converges_without_bisection(self):
        ys = []

        def newton(y):
            ys.append(y)
            h = math.exp(-y) - 0.5  # root log 2, h falling
            return h, h / math.exp(-y), None

        y, _, iterations = _bracketed_newton(newton, 0.0)
        assert y == pytest.approx(math.log(2.0), rel=1e-15) and iterations <= 7


class TestFit:
    def test_uncensored_exponential_mle_exact(self, exp_sample):
        result = fit(exp_sample, EXPONENTIAL, FitConfig(alpha=0.0))
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(exp_sample.z.mean(), abs=1e-10)

    def test_uncensored_weibull_matches_classical_mle(self):
        rng = np.random.default_rng(5)
        sample = uncensored(2.0 * rng.weibull(5.0, 500))
        result = fit(sample, WEIBULL, FitConfig(alpha=0.0))

        nll = lambda eta: -np.sum(WEIBULL.logpdf(np.exp(eta), sample.z))
        oracle = optimize.minimize(
            nll, np.log(result.theta_hat) + 0.05, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 4000},
        )
        np.testing.assert_allclose(result.theta_hat, np.exp(oracle.x), rtol=1e-6)

    def test_residual_below_tolerance_when_converged(self, weibull_censored):
        for alpha in (0.0, 0.5, 1.0):
            result = fit(weibull_censored, WEIBULL, FitConfig(alpha=alpha))
            assert result.converged
            assert result.eqn_residual < 1e-8
            assert np.all(result.theta_hat > 0)

    def test_consistency_against_own_standard_errors(self, weibull_design):
        sample = simulate(weibull_design, 10_000, replication=77)
        result = fit(sample, WEIBULL, FitConfig(alpha=0.5))
        np.testing.assert_array_less(
            np.abs(result.theta_hat - np.array([2.0, 5.0])), 3.0 * result.se
        )

    def test_scale_equivariance(self, weibull_censored):
        for family, sample in (
            (WEIBULL, weibull_censored),
            (EXPONENTIAL, uncensored(weibull_censored.z)),
        ):
            base = fit(sample, family, FitConfig(alpha=0.3)).theta_hat
            scaled_sample = CensoredSample(sample.z * 37.0, sample.delta)
            scaled = fit(scaled_sample, family, FitConfig(alpha=0.3)).theta_hat
            expected = base.copy()
            expected[0] *= 37.0
            np.testing.assert_allclose(scaled, expected, rtol=1e-6)

    def test_explicit_start_respected(self, exp_sample):
        result = fit(exp_sample, EXPONENTIAL, FitConfig(alpha=0.0, start=(5.0,)))
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(exp_sample.z.mean(), rel=1e-7)

    def test_explicit_start_without_root_falls_back_to_default(self):
        # from start (10, 30) neither trajectory reaches a root of this
        # contaminated sample at alpha = 0.5; the fit retries from the
        # default start and counts the iterations of all four trajectories
        sample = simulate(contaminated_design(5), 100)
        cold = fit(sample, WEIBULL, FitConfig(alpha=0.5))
        result = fit(sample, WEIBULL, FitConfig(alpha=0.5, start=(10.0, 30.0)))
        assert result.converged
        np.testing.assert_allclose(result.theta_hat, [2.02779, 5.58737], atol=1e-5)
        np.testing.assert_allclose(result.theta_hat, cold.theta_hat, rtol=1e-6)
        assert result.n_iter > cold.n_iter

    def test_sensitivity_tracks_influence_curve(self):
        # finite-sample sensitivity n*(theta_hat(sample+t) - theta_hat) tracks
        # the influence curve (estimating-function sign convention: the raw
        # sensitivity is its negative)
        rng = np.random.default_rng(21)
        base = np.sort(rng.exponential(1.0, 500))
        for alpha in (0.5, 1.0):
            fit0 = fit(uncensored(base), EXPONENTIAL, FitConfig(alpha=alpha))
            for t in (0.05, 1.0, 4.0, 10.0):
                augmented = uncensored(np.append(base, t))
                fit1 = fit(augmented, EXPONENTIAL, FitConfig(alpha=alpha, start=fit0.theta_hat))
                sensitivity = (base.size + 1) * (fit1.theta_hat[0] - fit0.theta_hat[0])
                influence = if_estimator(EXPONENTIAL, fit0.theta_hat, alpha, t)[0]
                assert sensitivity == pytest.approx(-influence, rel=0.15, abs=0.02)


    def test_second_cold_fit_reuses_the_start(self, weibull_design, monkeypatch):
        sample = simulate(weibull_design, 60)
        hazard_start, calls = estimator._hazard_start, []
        monkeypatch.setattr(estimator, "_hazard_start", lambda *a: calls.append(a) or hazard_start(*a))
        first = fit(sample, WEIBULL, FitConfig(alpha=0.5))
        assert calls == [(sample, WEIBULL)]
        second = fit(sample, WEIBULL, FitConfig(alpha=0.5))
        assert len(calls) == 1
        np.testing.assert_array_equal(second.theta_hat, first.theta_hat)
        assert (second.n_iter, second.message) == (first.n_iter, first.message)
        start = _initial_theta(sample, WEIBULL)
        assert start is _initial_theta(sample, WEIBULL) and not start.flags.writeable

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("family", [EXPONENTIAL, WEIBULL], ids=["exp", "weibull"])
    def test_sandwich_matches_the_public_covariance(self, weibull_censored, family, alpha):
        # fit evaluates psi once on the sample, without mdpde_psi's checks
        result = fit(weibull_censored, family, FitConfig(alpha=alpha))
        assert result.converged
        theta = result.theta_hat
        public = covariance_estimate(
            weibull_censored, lambda x, th: mdpde_psi(family, th, alpha, x), theta,
            lambda_model(family, theta, alpha),
        )
        for name in ("c_hat", "lambda_hat", "sigma_hat"):
            np.testing.assert_allclose(getattr(result, name), getattr(public, name), rtol=1e-13, atol=0)
        assert result.lambda_cond == pytest.approx(public.lambda_cond, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("family", [EXPONENTIAL, WEIBULL], ids=["exp", "weibull"])
    def test_censored_time_zero_is_fitted(self, weibull_design, family, alpha):
        # a censored 0 carries no product-limit weight, so the solve runs as
        # without it, and the sandwich evaluates psi at the event times only
        base = simulate(weibull_design, 60)
        sample = CensoredSample(np.append(base.z, 0.0), np.append(base.delta, 0))
        result = fit(sample, family, FitConfig(alpha=alpha))
        assert result.converged and result.n == 61
        # from the same start: the exponential's, the total-time-on-test
        # mean, sums 61 values in another np.sum grouping than 60
        start = FitConfig(alpha=alpha, start=_initial_theta(sample, family))
        np.testing.assert_array_equal(result.theta_hat, fit(base, family, start).theta_hat)
        theta = result.theta_hat
        public = covariance_estimate(
            sample, lambda x, th: mdpde_psi(family, th, alpha, x), theta,
            lambda_model(family, theta, alpha),
        )
        for name in ("c_hat", "lambda_hat", "sigma_hat"):
            np.testing.assert_array_equal(getattr(result, name), getattr(public, name))


def polyfit_start(sample):
    """The default Weibull start with its line fitted by np.polyfit: the
    oracle of TestHazardStart."""
    ttt_mean = max(float(sample.z.sum()) / max(sample.n_events, 1), 1e-12)
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


class TestHazardStart:
    """The closed-form least-squares line of the default Weibull start."""

    @given(
        observations=st.lists(st.tuples(st.integers(1, 400), st.floats(0.0, 1.0)), min_size=1, max_size=120),
        censoring=st.floats(0.0, 0.9),
        scale=st.sampled_from([0.05, 1.0, 1e3]),
    )
    @example(observations=[(1, 0.5), (2, 0.5)], censoring=0.0, scale=1.0)
    @example(observations=[(3, 0.5)] * 5 + [(7, 0.1), (7, 0.9), (9, 0.95)], censoring=0.9, scale=0.05)
    @example(observations=[(0, 0.5), (0, 0.5), (2, 0.5), (5, 0.5), (9, 0.5)], censoring=0.0, scale=1.0)
    def test_matches_polyfit(self, observations, censoring, scale):
        # integer times on a grid tie often; an observation is censored with
        # probability ``censoring``
        z = scale * np.array([t for t, _ in observations], dtype=float)
        delta = np.array([u >= censoring for _, u in observations], dtype=np.int8)
        sample = CensoredSample(z, delta)
        np.testing.assert_allclose(
            estimator._hazard_start(sample, WEIBULL), polyfit_start(sample), rtol=1e-12, atol=0
        )

    def test_exponential_start_is_the_total_time_on_test_mean(self, small_sample):
        np.testing.assert_array_equal(estimator._hazard_start(small_sample, EXPONENTIAL), [3.0])


class TestSummary:
    """The three matrices print one line per row at 6 significant digits."""

    @staticmethod
    def matrices(result):
        text = result.summary()
        return text[text.index("lambda_hat:"):]

    def test_one_by_one(self):
        result = replace(FitResult.failed(EXPONENTIAL, 10, 0.0, ""), lambda_hat=np.array([[0.25]]),
                         c_hat=np.array([[1e-7]]), sigma_hat=np.array([[12345.678]]))
        assert self.matrices(result) == (
            "lambda_hat:\n          0.25\nc_hat:\n         1e-07\nsigma_hat:\n       12345.7"
        )

    def test_two_by_two_with_negative_entries(self):
        m = np.array([[1.5, -0.000123456789], [-0.000123456789, 2e10]])
        result = replace(FitResult.failed(WEIBULL, 10, 0.0, ""), lambda_hat=m, c_hat=-m,
                         sigma_hat=3.0 * m)
        assert self.matrices(result) == "\n".join([
            "lambda_hat:",
            "           1.5  -0.000123457",
            "  -0.000123457         2e+10",
            "c_hat:",
            "          -1.5   0.000123457",
            "   0.000123457        -2e+10",
            "sigma_hat:",
            "           4.5   -0.00037037",
            "   -0.00037037         6e+10",
        ])

    def test_failed_fit_prints_nan_matrices(self):
        nan_rows = ["           nan           nan"] * 2
        expected = [line for name in ("lambda_hat", "c_hat", "sigma_hat") for line in [f"{name}:", *nan_rows]]
        result = FitResult.failed(WEIBULL, 10, 0.5, "descent: no root at tol 1e-08")
        assert self.matrices(result) == "\n".join(expected)


class TestFitGrid:
    def test_singleton_equals_single_fit(self, exp_sample):
        single = fit(exp_sample, EXPONENTIAL, FitConfig(alpha=0.0))
        grid = fit_grid(exp_sample, EXPONENTIAL, [0.0])
        assert grid[0].theta_hat[0] == pytest.approx(single.theta_hat[0], abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_alpha_rejected_up_front(self, exp_sample, monkeypatch, bad):
        fits = []
        monkeypatch.setattr(estimator, "fit", lambda *args: fits.append(args))
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            fit_grid(exp_sample, EXPONENTIAL, [0.0, bad])
        assert fits == []

    def test_warm_equals_cold(self, weibull_censored):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        warm = fit_grid(weibull_censored, WEIBULL, grid)
        for alpha, res in zip(grid, warm):
            cold = fit(weibull_censored, WEIBULL, FitConfig(alpha=alpha))
            np.testing.assert_allclose(res.theta_hat, cold.theta_hat, atol=1e-6)

    def test_monotone_drift_on_outlier_arm(self, veteran):
        # robustified fits move the test-arm estimates monotonically away from
        # the outlier-driven likelihood fit
        results = fit_grid(veteran["B"], WEIBULL, [0.0, 0.25, 0.5, 0.75, 1.0])
        scales = [r.theta_hat[0] for r in results]
        shapes = [r.theta_hat[1] for r in results]
        assert all(b <= a + 1e-9 for a, b in zip(scales, scales[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(shapes, shapes[1:]))

    def test_rejects_bad_grid(self, exp_sample):
        with pytest.raises(ValueError):
            fit_grid(exp_sample, EXPONENTIAL, [0.5, 0.1])
        with pytest.raises(ValueError):
            fit_grid(exp_sample, EXPONENTIAL, [])

    def test_heavy_tail_interior_minimiser(self):
        # heavy-tailed mixture whose warm start from the alpha = 0 fit (shape
        # 0.35) lies where f^(1+alpha) is not integrable at alpha = 1; the
        # objective still has an interior minimiser (shape above
        # alpha/(1+alpha) = 0.5), which the fit must find
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.weibull(0.45, 60), rng.exponential(80.0, 20)])
        sample = uncensored(z)
        results = fit_grid(sample, WEIBULL, [0.0, 1.0])
        assert all(r.converged for r in results)
        assert results[0].theta_hat[1] < 0.5
        oracle = objective_minimum(sample, 1.0, (1e-4, 1e3), (0.5, 5.0))
        np.testing.assert_allclose(results[1].theta_hat, oracle, rtol=1e-6)

    def test_no_root_at_non_integrable_start_reported(self):
        # cold alpha = 1 fit whose default start (shape 0.286) lies where
        # f^(1+alpha) is not integrable: the start shape is raised to 0.75,
        # and the fit finds the objective's interior minimiser from there
        rng = np.random.default_rng(21)
        z = np.concatenate([rng.weibull(0.45, 60), rng.exponential(80.0, 20)])
        sample = uncensored(z)
        assert _initial_theta(sample, WEIBULL)[1] < 0.5
        result = fit(sample, WEIBULL, FitConfig(alpha=1.0))
        assert result.converged
        oracle = objective_minimum(sample, 1.0, (1e-4, 1e3), (0.5, 5.0))
        np.testing.assert_allclose(result.theta_hat, oracle, rtol=1e-6)

    def test_no_root_reported_not_raised(self, weibull_censored, monkeypatch):
        # one iteration per trajectory finds no root: the fit must say so
        # rather than raise when forming the sandwich there
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        result = fit(weibull_censored, WEIBULL, FitConfig(alpha=0.5))
        assert not result.converged
        assert result.message.endswith(": no root at tol 1e-08")
        assert np.all(np.isfinite(result.theta_hat))
        for matrix in (result.lambda_hat, result.c_hat, result.sigma_hat):
            assert matrix.shape == (2, 2) and np.isnan(matrix).all()
        assert result.lambda_cond == np.inf

    def test_failed_result_placeholder(self):
        failed = FitResult.failed(WEIBULL, 40, 0.5, "singular sandwich")
        assert not failed.converged
        assert failed.alpha == 0.5 and failed.n == 40 and failed.n_iter == 0
        assert failed.message == "singular sandwich"
        assert failed.theta_hat.shape == (2,) and np.isnan(failed.theta_hat).all()
        for matrix in (failed.lambda_hat, failed.c_hat, failed.sigma_hat):
            assert matrix.shape == (2, 2) and np.isnan(matrix).all()
        assert failed.eqn_residual == np.inf and failed.lambda_cond == np.inf


class TestVeteranTable:
    @pytest.mark.parametrize(
        "arm,alpha,expected",
        [
            ("A", 0.0, (123.0, 0.99)),
            ("A", 0.5, (125.0, 0.96)),
            ("A", 1.0, (122.0, 0.97)),
            ("B", 0.0, (118.0, 0.76)),
            ("B", 0.5, (95.0, 0.92)),
            ("B", 1.0, (85.0, 0.99)),
            ("combined", 0.0, (121.0, 0.85)),
            ("combined", 0.5, (111.0, 0.93)),
            ("combined", 1.0, (103.0, 0.97)),
        ],
    )
    def test_published_estimates(self, veteran, arm, alpha, expected):
        result = fit(veteran[arm], WEIBULL, FitConfig(alpha=alpha))
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(expected[0], abs=3.0)
        assert result.theta_hat[1] == pytest.approx(expected[1], abs=0.05)


class TestTinySamples:
    def test_single_observation_pipeline(self):
        sample = uncensored([2.5])
        result = fit(sample, EXPONENTIAL, FitConfig(alpha=0.0))
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(2.5, abs=1e-10)
        assert result.sigma_hat.shape == (1, 1)

    def test_two_observations_with_censoring(self):
        sample = CensoredSample(np.array([1.0, 3.0]), np.array([1, 0], dtype=np.int8))
        result = fit(sample, EXPONENTIAL, FitConfig(alpha=0.3))
        assert np.all(np.isfinite(result.theta_hat))
        assert result.theta_hat[0] > 0


class TestUnidentifiableSamples:
    @pytest.mark.parametrize(
        "z,delta,family",
        [
            ([1.0, 2.0, 3.0], [0, 0, 0], EXPONENTIAL),  # no event
            ([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 0], WEIBULL),  # one event
            ([2.0, 2.0, 2.0], [1, 1, 1], WEIBULL),  # all times tied
        ],
    )
    def test_rejected_up_front(self, z, delta, family):
        sample = CensoredSample(np.array(z), np.array(delta, dtype=np.int8))
        with pytest.raises(UnidentifiableSampleError, match="distinct event time"):
            fit(sample, family, FitConfig(alpha=0.5))
        # a sweep records the failure per alpha instead of aborting
        results = fit_grid(sample, family, [0.0, 0.5])
        assert not any(r.converged for r in results)
        assert all("distinct event time" in r.message for r in results)

    @given(
        st.lists(st.floats(0.1, 50.0), min_size=1, max_size=30),
        st.floats(0.1, 50.0),
        st.integers(0, 5),
    )
    def test_fewer_than_two_event_times_never_fit_weibull(self, censored, event_time, ties):
        z = np.array(censored + [event_time] * ties)
        delta = np.array([0] * len(censored) + [1] * ties, dtype=np.int8)
        sample = CensoredSample(z, delta)
        with pytest.raises(UnidentifiableSampleError):
            fit(sample, WEIBULL)
        if ties == 0:
            with pytest.raises(UnidentifiableSampleError):
                fit(sample, EXPONENTIAL)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(alpha=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_alpha_rejected(self, bad):
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            FitConfig(alpha=bad)
