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
    WEIBULL,
    fit,
    fit_grid,
    if_estimator,
    mdpde_objective,
    simulate,
)
from robustsurv.estimator import _MAX_LOG_DRIFT, _initial_theta, _newton, _WeightedEquation


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

        g_log, jac_log = eq.estimating_log(eta, jacobian=True)
        np.testing.assert_array_equal(g_log, g)
        fd_log = central_jacobian(eq.estimating_log, eta, np.full(eta.size, 1e-5))
        np.testing.assert_allclose(
            jac_log, fd_log, rtol=1e-6, atol=1e-6 * np.abs(jac_log).max()
        )


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
        # where f^(1+alpha) stops being integrable; without the drift stop it
        # takes 75 iterations, out to scale 3e27, before the line search fails
        sample = simulate(contaminated_design(1750529956), 100, replication=0)
        eq = _WeightedEquation(sample, WEIBULL, 0.5)
        eta0 = np.log(_initial_theta(sample, WEIBULL))
        eta, _, iters, ok = _newton(eq, eta0, 1e-8, 200)
        assert not ok
        assert iters < 50
        assert np.max(np.abs(eta - eta0)) > _MAX_LOG_DRIFT
        # the fit still finds the root through its fallback
        assert fit(sample, WEIBULL, FitConfig(alpha=0.5)).converged


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

    def test_grid_from_config(self, exp_sample):
        results = fit_grid(
            exp_sample, EXPONENTIAL, None, FitConfig(alpha_grid=(0.0, 0.5))
        )
        assert [r.alpha for r in results] == [0.0, 0.5]

    def test_boundary_runaway_reported_not_converged(self):
        # heavy-tailed mixture where f^(1+alpha) stops being integrable at the
        # robust fit's shape: the solver must not report the degenerate
        # boundary "root" as a converged estimate
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.weibull(0.45, 60), rng.exponential(80.0, 20)])
        sample = uncensored(z)
        results = fit_grid(sample, WEIBULL, [0.0, 1.0])
        assert results[0].converged
        assert not results[1].converged
        assert results[1].eqn_residual == np.inf or results[1].message

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


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            FitConfig(tol_gradient=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_iter=0)
