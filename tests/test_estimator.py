import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize

from robustsurv import (
    CensoredSample,
    EXPONENTIAL,
    FamilySpec,
    FitConfig,
    FitResult,
    SyntheticDesign,
    UnidentifiableSampleError,
    WEIBULL,
    fit,
    fit_grid,
    if_estimator,
    kmpl_fit,
    mdpde_objective,
    simulate,
)
from robustsurv import estimator
from robustsurv.estimator import (
    _MAX_LOG_DRIFT,
    _STALL_STEPS,
    _initial_theta,
    _newton,
    _solve,
    _WeightedEquation,
)


def uncensored(z):
    z = np.asarray(z, dtype=float)
    return CensoredSample(z, np.ones(z.size, dtype=np.int8))


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
        got = mdpde_objective(exp_sample, EXPONENTIAL, theta, 0.0)
        expected = -np.mean(EXPONENTIAL.logpdf(theta, exp_sample.z))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_continuous_in_alpha(self, exp_sample):
        theta = [2.1]
        limit = mdpde_objective(exp_sample, EXPONENTIAL, theta, 0.0)
        gaps = [
            abs(mdpde_objective(exp_sample, EXPONENTIAL, theta, a) - limit)
            for a in (1e-3, 1e-4, 1e-5)
        ]
        assert gaps[0] < 5e-3
        # O(alpha) decay
        assert gaps[1] < 0.15 * gaps[0]
        assert gaps[2] < 0.15 * gaps[1]

    def test_local_minimum_property(self, exp_sample):
        result = fit(exp_sample, EXPONENTIAL, FitConfig(alpha=0.5))
        base = mdpde_objective(exp_sample, EXPONENTIAL, result.theta_hat, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            perturbed = result.theta_hat * np.exp(rng.normal(0, 0.3))
            assert mdpde_objective(exp_sample, EXPONENTIAL, perturbed, 0.5) >= base

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
            grad_fd[j] = (eq.objective(up) - eq.objective(down)) / (2 * h)
        np.testing.assert_allclose(grad_fd, 1.4 * eq.estimating(theta), rtol=1e-5, atol=1e-9)


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
    """Oracle: Weibull minimiser of mdpde_objective, from the best point of a
    120 x 80 grid, log-spaced over the given ranges, polished by Nelder-Mead."""

    def objective(eta):
        try:
            with np.errstate(all="ignore"):
                return mdpde_objective(sample, WEIBULL, np.exp(eta), alpha)
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
    estimating equation, in theta and in the solver's log coordinates."""

    @given(
        family=st.sampled_from([EXPONENTIAL, WEIBULL]),
        contaminated=st.booleans(),
        alpha=st.floats(0.0, 1.0),
        log_offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @example(family=WEIBULL, contaminated=True, alpha=0.0, log_offset=(0.3, -0.4))
    @example(family=EXPONENTIAL, contaminated=False, alpha=0.0, log_offset=(-0.5, 0.0))
    def test_matches_central_differences(self, family, contaminated, alpha, log_offset):
        eq = _WeightedEquation(jacobian_sample(contaminated), family, alpha)
        eta = np.log([2.0, 5.0][: family.dim]) + np.array(log_offset[: family.dim])
        theta = np.exp(eta)

        g, jac = eq.estimating(theta, jacobian=True)
        np.testing.assert_array_equal(g, eq.estimating(theta))
        fd = central_jacobian(eq.estimating, theta, 1e-5 * theta)
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
    logpdf and weighted_integrals over the product-limit weights."""

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
        g, jac = _WeightedEquation(sample, family, alpha).estimating(theta, jacobian=True)
        scale = max(np.abs(jvec).max(), np.abs(terms).sum(axis=0).max())
        np.testing.assert_allclose(g, jvec - terms.sum(axis=0), rtol=1e-12, atol=1e-12 * scale)

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
        _, iters, ok = _newton(eq, eta0, 1e-8, 200)
        assert not ok
        assert iters < 50
        # the fit still finds the root through its fallback
        assert fit(sample, WEIBULL, FitConfig(alpha=0.5)).converged

    def test_drift_stop_ends_a_runaway_that_lowers_the_residual(self, exp_sample):
        # a trajectory that halves |g| at every step is not stalled, but one
        # that moves eta by 4 per step passes the drift bound at step 6
        eq = _WeightedEquation(exp_sample, EXPONENTIAL, 0.0)
        step = lambda at: at._replace(eta=(at.eta[0] + 4.0,), norm=0.5 * at.norm)
        end, iters, ok = _solve(eq, np.zeros(1), 1e-8, 200, step, stall=True)
        assert not ok
        assert iters == 6 and end.eta[0] > _MAX_LOG_DRIFT

    def test_root_above_its_start_is_not_converged(self, exp_sample):
        # a step to |g| = 0 whose objective is above the start's is a
        # boundary pseudo-root, not a root
        eq = _WeightedEquation(exp_sample, EXPONENTIAL, 0.0)
        rise = lambda at: at._replace(eta=(at.eta[0] + 1.0,), value=at.value + 1e-6, norm=0.0)
        end, iters, ok = _solve(eq, np.zeros(1), 1e-8, 200, rise)
        assert not ok and iters == 1 and end.norm == 0.0
        # the same step without the rise converges
        flat = lambda at: at._replace(eta=(at.eta[0] + 1.0,), norm=0.0)
        assert _solve(eq, np.zeros(1), 1e-8, 200, flat)[2]

    def test_stall_stop_only_where_asked(self, exp_sample):
        # |g| falling by 10 % per step, which is 0.59 over five steps
        eq = _WeightedEquation(exp_sample, EXPONENTIAL, 0.0)
        crawl = lambda at: at._replace(eta=(at.eta[0] + 0.01,), norm=0.9 * at.norm)
        _, iters, ok = _solve(eq, np.zeros(1), 1e-300, 100, crawl, stall=True)
        assert not ok and iters == _STALL_STEPS
        # without the stall stop (descent) the same crawl runs to max_iter
        _, iters, ok = _solve(eq, np.zeros(1), 1e-300, 100, crawl)
        assert not ok and iters == 100

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("family", [EXPONENTIAL, WEIBULL], ids=["exp", "weibull"])
    def test_extreme_trial_points_are_rejected_not_raised(self, weibull_censored, family, alpha):
        # the solver's evaluations on trial points out to theta = 0 and inf:
        # overflow, division by zero and log(0) must come back as values the
        # damping logic rejects, never as an exception or a warning
        eq = _WeightedEquation(weibull_censored, family, alpha)
        p = family.dim
        for eta in itertools.product((-800.0, -40.0, 0.0, 40.0, 800.0), repeat=p):
            eta = np.array(eta)
            with np.errstate(all="ignore"):  # as fit() sets for its solve
                at = eq.point(eta)
                g = g_j = np.array(at.g)
                jac = np.array(at.jac)
                value = at.value
                mass = eq.data_mass(eta)
            assert g.shape == g_j.shape == (p,) and jac.shape == (p, p)
            assert not np.isnan(value) and value > -np.inf
            if np.max(np.abs(eta)) == 800.0:  # some coordinate is 0 or inf
                assert not np.all(np.isfinite(g)) and not np.all(np.isfinite(g_j))
                assert not np.all(np.isfinite(jac))
                # never counted as density mass (NaN, or 0.0 for an
                # evaluation that raised)
                assert not mass > 0.0
            if np.min(eta) == -800.0:  # density not defined at theta = 0
                assert value == np.inf

    def test_descent_fallback_after_failed_newton(self):
        # replication 213 of the same workload at alpha = 0: residual Newton
        # from the default start crawls towards scale 2e6 (without the stall
        # stop it runs its 200 iterations; the stall stop ends it at 9);
        # descent on the objective from the same start finds the minimiser
        sample = simulate(contaminated_design(502419184), 100, replication=0)
        eq = _WeightedEquation(sample, WEIBULL, 0.0)
        eta0 = np.log(_initial_theta(sample, WEIBULL))
        _, iters, ok = _newton(eq, eta0, 1e-8, 200)
        assert not ok and iters <= 15
        result = fit(sample, WEIBULL, FitConfig(alpha=0.0))
        assert result.converged and result.message == "descent"
        np.testing.assert_allclose(result.theta_hat, [2.29417, 1.63180], atol=1e-5)
        oracle = objective_minimum(sample, 0.0, (1e-2, 1e3), (0.05, 20.0))
        np.testing.assert_allclose(result.theta_hat, oracle, rtol=1e-6)


    def test_no_trajectory_evaluates_a_point_twice(self, monkeypatch):
        # replication 213 of the contaminated workload at alpha = 0 (see
        # test_descent_fallback_after_failed_newton) takes both trajectories;
        # every family evaluation is recorded under the trajectory making it
        sample = simulate(contaminated_design(502419184), 100, replication=0)
        trajectories = []

        def recorded(solver):
            def run(*args):
                trajectories.append([])
                return solver(*args)

            return run

        for name in ("_newton", "_descent"):
            monkeypatch.setattr(estimator, name, recorded(getattr(estimator, name)))
        fused = type(WEIBULL)._equation

        def equation(self, theta, *args):
            trajectories[-1].append(tuple(np.log(theta)))
            return fused(self, theta, *args)

        monkeypatch.setattr(type(WEIBULL), "_equation", equation)
        result = fit(sample, WEIBULL, FitConfig(alpha=0.0))
        assert result.converged and result.message == "descent"
        assert len(trajectories) >= 2 and all(len(etas) > 1 for etas in trajectories)
        for etas in trajectories:
            assert len(set(etas)) == len(etas)


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
