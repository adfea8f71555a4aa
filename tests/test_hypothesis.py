import numpy as np
import pytest
from scipy import integrate, stats

from robustsurv import (
    FamilySpec,
    FitConfig,
    FunctionRestriction,
    LinearRestriction,
    SyntheticDesign,
    WEIBULL,
    contiguous_power,
    fit,
    fit_grid,
    lambda_model,
    noncentral_chi2_sf,
    power_approx,
    simulate,
    wald_statistic,
)
from robustsurv import hypothesis as hypothesis_module
from robustsurv.hypothesis import chi2_quantile, chi2_sf


@pytest.fixture(scope="module")
def weibull_fit(weibull_design):
    sample = simulate(weibull_design, 400, replication=1)
    return fit(sample, WEIBULL, FitConfig(alpha=0.3))


class TestRestrictions:
    def test_simple_builds_identity(self):
        restriction = LinearRestriction.simple((2.0, 5.0))
        assert restriction.r == 2
        np.testing.assert_array_equal(restriction.jacobian(np.ones(2)), np.eye(2))
        np.testing.assert_allclose(restriction.m(np.array([2.5, 4.0])), [0.5, -1.0])

    def test_component_selector(self):
        restriction = LinearRestriction.component(1, 5.0, 2, name="shape")
        np.testing.assert_array_equal(restriction.jacobian(np.ones(2)), [[0.0], [1.0]])
        assert "shape" in restriction.description

    def test_function_restriction_fd_jacobian(self):
        restriction = FunctionRestriction(
            r=1, m_func=lambda th: np.array([th[0] * th[1] - 10.0])
        )
        theta = np.array([2.0, 5.0])
        np.testing.assert_allclose(
            restriction.jacobian(theta)[:, 0], [5.0, 2.0], rtol=1e-6
        )
        restriction.validate_at(theta)

    def test_validate_rejects_wrong_jacobian(self):
        bad = FunctionRestriction(
            r=1,
            m_func=lambda th: np.array([th[0] - 1.0]),
            jacobian_func=lambda th: np.array([[2.0], [0.0]]),
        )
        with pytest.raises(ValueError, match="finite differences"):
            bad.validate_at(np.array([1.0, 1.0]))

    def test_linear_matrix_is_a_read_only_copy(self):
        matrix, target = np.eye(2), np.array([2.0, 5.0])
        restriction = LinearRestriction(matrix, target)
        assert matrix.flags.writeable and target.flags.writeable
        assert not np.shares_memory(restriction.matrix, matrix)
        assert not np.shares_memory(restriction.target, target)
        assert not restriction.matrix.flags.writeable
        # the caller's array can change without touching the restriction or
        # its rank, which validate_at takes once
        restriction.validate_at(np.array([1.0, 1.0]))
        matrix[:] = 0.0
        restriction.validate_at(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(restriction.matrix, np.eye(2))

    def test_linear_jacobian_exact_without_finite_differences(self, monkeypatch):
        def no_fd(*args):
            raise AssertionError("finite differences of a linear restriction")

        monkeypatch.setattr(hypothesis_module, "_central_differences", no_fd)
        LinearRestriction.simple((2.0, 5.0)).validate_at(np.array([2.5, 4.0]))
        LinearRestriction.component(1, 5.0, 2).validate_at(np.array([2.5, 4.0]))
        # shapes are still checked on every call
        with pytest.raises(ValueError, match="r=1 vector"):
            LinearRestriction(np.eye(2)[:, :1], np.zeros(2)).validate_at(np.ones(2))

    def test_validate_returns_the_checked_m_and_jacobian(self, weibull_fit):
        # wald_statistic uses what validate_at checked: m once, plus two
        # calls per coordinate for the finite-difference Jacobian and two for
        # its check
        calls = []

        def m_func(th):
            calls.append(th)
            return np.array([th[0] * th[1] - 10.0])

        restriction = FunctionRestriction(r=1, m_func=m_func)
        theta = weibull_fit.theta_hat
        m, jac = restriction.validate_at(theta)
        np.testing.assert_array_equal(m, restriction.m(theta))
        np.testing.assert_array_equal(jac, restriction.jacobian(theta))
        calls.clear()
        wald_statistic(weibull_fit, restriction)
        assert len(calls) == 1 + 4 * theta.size

    def test_validate_rejects_rank_deficiency(self):
        degenerate = LinearRestriction(np.zeros((2, 1)), np.zeros(1))
        for _ in range(2):  # the cached rank fails every call
            with pytest.raises(ValueError, match="rank"):
                degenerate.validate_at(np.array([1.0, 1.0]))


class TestWaldStatistic:
    def test_zero_at_null_point(self, weibull_fit):
        report = wald_statistic(weibull_fit, LinearRestriction.simple(weibull_fit.theta_hat))
        assert report.statistic == pytest.approx(0.0, abs=1e-18)
        assert report.p_value == 1.0

    def test_simple_equals_quadratic_form(self, weibull_fit):
        theta0 = np.array([2.0, 5.0])
        report = wald_statistic(weibull_fit, LinearRestriction.simple(theta0))
        diff = weibull_fit.theta_hat - theta0
        direct = weibull_fit.n * diff @ np.linalg.solve(weibull_fit.sigma_hat, diff)
        assert report.statistic == pytest.approx(direct, abs=1e-10)
        assert report.df == 2
        assert report.p_value == pytest.approx(chi2_sf(2, direct), abs=1e-15)

    def test_scalar_reduction(self, weibull_fit):
        report = wald_statistic(weibull_fit, LinearRestriction.component(1, 4.0, 2))
        direct = (
            weibull_fit.n
            * (weibull_fit.theta_hat[1] - 4.0) ** 2
            / weibull_fit.sigma_hat[1, 1]
        )
        assert report.statistic == pytest.approx(direct, rel=1e-12)
        assert report.df == 1

    def test_invariant_under_linear_reparameterization(self, weibull_fit):
        theta0 = np.array([2.0, 5.0])
        base = wald_statistic(weibull_fit, LinearRestriction.simple(theta0))
        mixing = np.array([[2.0, -1.0], [0.5, 3.0]])
        remapped = FunctionRestriction(
            r=2,
            m_func=lambda th: mixing @ (th - theta0),
            jacobian_func=lambda th: mixing.T,
        )
        other = wald_statistic(weibull_fit, remapped)
        assert other.statistic == pytest.approx(base.statistic, abs=1e-10)

    def test_requires_convergence(self, weibull_fit):
        import dataclasses

        broken = dataclasses.replace(weibull_fit, converged=False)
        with pytest.raises(ValueError, match="converged"):
            wald_statistic(broken, LinearRestriction.simple((2.0, 5.0)))

    def test_report_serialization(self, weibull_fit):
        report = wald_statistic(weibull_fit, LinearRestriction.simple((2.0, 5.0)))
        row = report.to_dict()
        assert row["df"] == 2 and 0.0 <= row["p_value"] <= 1.0
        assert "lambda_cond" in row and "statistic" in report.summary().lower()


def contaminated_sample(seed, k):
    """Replication k of the contaminated level/power design (Weibull(2, 5),
    10% censoring, 5% Exp(5) contamination, n = 100) under master seed seed."""
    design = SyntheticDesign(
        lifetime=FamilySpec("weibull", (2.0, 5.0)),
        censoring_mean=17.4,
        contamination_fraction=0.05,
        contamination=FamilySpec("exp", (5.0,)),
        seed=int(np.random.SeedSequence([seed, k]).generate_state(1)[0]),
    )
    return simulate(design, 100, replication=0)


class TestAgainstNumpyAssembly:
    """Sigma_hat, lambda_cond and the Wald p-values, assembled on floats,
    against np.linalg.inv / cond / solve on the fit's own Lambda_hat and
    C_hat, to 1e-12."""

    hypotheses = (
        LinearRestriction.simple((2.0, 5.0)),
        LinearRestriction.component(1, 5.0, 2),
        LinearRestriction.component(1, 1.0, 2),
    )

    def check(self, fr):
        assert fr.converged
        lam = lambda_model(WEIBULL, fr.theta_hat, fr.alpha)
        np.testing.assert_array_equal(fr.lambda_hat, lam)
        inv = np.linalg.inv(lam)
        sigma = inv @ fr.c_hat @ inv.T
        sigma = 0.5 * (sigma + sigma.T)
        np.testing.assert_allclose(fr.sigma_hat, sigma, rtol=0, atol=1e-12 * np.abs(sigma).max())
        assert fr.lambda_cond == pytest.approx(np.linalg.cond(lam), rel=1e-12)
        for restriction in self.hypotheses:
            m = restriction.m(fr.theta_hat)
            jac = restriction.jacobian(fr.theta_hat)
            statistic = fr.n * m @ np.linalg.solve(jac.T @ sigma @ jac, m)
            got = wald_statistic(fr, restriction).p_value
            assert got == pytest.approx(chi2_sf(restriction.r, statistic), rel=0, abs=1e-12)

    @pytest.mark.parametrize("arm", ["A", "B"])
    def test_veteran_arms(self, veteran, arm):
        for fr in fit_grid(veteran[arm], WEIBULL, np.linspace(0.0, 1.0, 11)):
            self.check(fr)

    def test_contaminated_replications(self):
        for k in range(50):
            for fr in fit_grid(contaminated_sample(7, k), WEIBULL, (0.0, 0.5)):
                self.check(fr)


class TestPowerApprox:
    def test_midpoint_is_half(self):
        sigma = np.array([[2.0]])
        n = 50
        # choose theta* so that wbar == quantile/n exactly
        quantile = chi2_quantile(1, 0.05)
        target = np.sqrt(quantile / n * sigma[0, 0])
        restriction = LinearRestriction.simple((1.0,))
        got = power_approx(np.array([1.0 + target]), restriction, sigma, n, 0.05)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_tends_to_one(self):
        sigma = np.array([[2.0]])
        restriction = LinearRestriction.simple((1.0,))
        powers = [
            power_approx(np.array([1.4]), restriction, sigma, n, 0.05)
            for n in (50, 200, 2000)
        ]
        assert powers[0] < powers[1] < powers[2]
        assert powers[2] > 0.999

    def test_null_point_rejected(self):
        with pytest.raises(ValueError, match="null"):
            power_approx(
                np.array([1.0]), LinearRestriction.simple((1.0,)), np.eye(1), 50
            )

    def test_table_style_alternative_has_full_power(self, weibull_design):
        sample = simulate(weibull_design, 10_000, replication=3)
        fitted = fit(sample, WEIBULL, FitConfig(alpha=0.0))
        got = power_approx(
            np.array([2.0, 5.0]),
            LinearRestriction.simple((2.2, 2.3)),
            fitted.sigma_hat,
            100,
            0.05,
        )
        assert got >= 0.99


class TestContiguousPower:
    def test_zero_shift_gives_level(self):
        got = contiguous_power(
            np.zeros(2), LinearRestriction.simple((2.0, 5.0)), np.eye(2), (2.0, 5.0)
        )
        assert got == pytest.approx(0.05, abs=1e-12)

    def test_scalar_matches_normal_identity(self):
        sigma = np.array([[1.7]])
        d = np.array([1.2])
        restriction = LinearRestriction.simple((1.0,))
        got = contiguous_power(d, restriction, sigma, (1.0,), level=0.05)
        ncp = d[0] ** 2 / sigma[0, 0]
        z = np.sqrt(chi2_quantile(1, 0.05))
        expected = stats.norm.sf(z - np.sqrt(ncp)) + stats.norm.cdf(-z - np.sqrt(ncp))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_series_matches_quadrature(self):
        q = chi2_quantile(1, 0.05)
        series = noncentral_chi2_sf(q, 1, 5.0)
        quadrature, _ = integrate.quad(
            lambda x: stats.ncx2.pdf(x, 1, 5.0), q, np.inf, epsabs=1e-12, epsrel=1e-12
        )
        assert series == pytest.approx(quadrature, abs=1e-8)
