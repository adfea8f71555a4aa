import numpy as np
import pytest

from robustsurv import (
    FamilySpec,
    FitConfig,
    LinearTwoSampleRestriction,
    SyntheticDesign,
    WEIBULL,
    fit,
    one_sided_wald,
    simulate,
    two_sample_contiguous,
    two_sample_power_approx,
    two_sample_wald,
)
from robustsurv import twosample
from robustsurv.hypothesis import chi2_quantile


@pytest.fixture(scope="module")
def two_arms(weibull_design):
    fit1 = fit(simulate(weibull_design, 150, replication=2), WEIBULL, FitConfig(alpha=0.3))
    fit2 = fit(simulate(weibull_design, 150, replication=9), WEIBULL, FitConfig(alpha=0.3))
    return fit1, fit2


HOM = LinearTwoSampleRestriction.homogeneity(2)
SHAPE_EQ = LinearTwoSampleRestriction.component_equal(1, 2, name="shape")


class TestTwoSampleWald:
    def test_zero_at_identical_fits(self, two_arms):
        fit1, _ = two_arms
        report = two_sample_wald(fit1, fit1, HOM)
        assert report.statistic == pytest.approx(0.0, abs=1e-18)
        assert report.p_value == 1.0

    def test_equal_size_reduction(self, two_arms):
        fit1, fit2 = two_arms
        report = two_sample_wald(fit1, fit2, HOM)
        pooled = 0.5 * (fit1.sigma_hat + fit2.sigma_hat)
        np.testing.assert_allclose(report.sigma_tilde, pooled, rtol=1e-12)
        diff = fit1.theta_hat - fit2.theta_hat
        direct = 150 / 2 * diff @ np.linalg.solve(pooled, diff)
        assert report.statistic == pytest.approx(direct, rel=1e-12)

    def test_swap_symmetry(self, two_arms):
        fit1, fit2 = two_arms
        forward = two_sample_wald(fit1, fit2, HOM)
        backward = two_sample_wald(fit2, fit1, HOM)
        assert forward.statistic == pytest.approx(backward.statistic, abs=1e-10)

    def test_mixed_alpha_rejected(self, two_arms, weibull_design):
        fit1, _ = two_arms
        other = fit(simulate(weibull_design, 100, replication=30), WEIBULL, FitConfig(alpha=0.5))
        with pytest.raises(ValueError, match="alpha"):
            two_sample_wald(fit1, other, HOM)

    def test_empirical_size(self, weibull_design):
        rejections = 0
        reps = 200
        for rep in range(reps):
            fit1 = fit(simulate(weibull_design, 100, replication=1000 + rep), WEIBULL, FitConfig(alpha=0.5))
            fit2 = fit(simulate(weibull_design, 100, replication=5000 + rep), WEIBULL, FitConfig(alpha=0.5))
            rejections += two_sample_wald(fit1, fit2, HOM).p_value < 0.05
        rate = rejections / reps
        # binomial 99% band around 0.05 at 200 replications
        assert abs(rate - 0.05) < 2.58 * np.sqrt(0.05 * 0.95 / reps) + 0.01


class TestOneSided:
    def test_zero_difference(self, two_arms):
        fit1, _ = two_arms
        report = one_sided_wald(fit1, fit1, SHAPE_EQ)
        assert report.statistic == pytest.approx(0.0, abs=1e-12)
        assert report.p_value == pytest.approx(0.5)

    def test_square_and_sign_identity(self, two_arms):
        fit1, fit2 = two_arms
        two_sided = two_sample_wald(fit1, fit2, SHAPE_EQ)
        one_sided = one_sided_wald(fit1, fit2, SHAPE_EQ)
        assert one_sided.statistic**2 == pytest.approx(two_sided.statistic, rel=1e-12)
        m = fit1.theta_hat[1] - fit2.theta_hat[1]
        assert np.sign(one_sided.statistic) == np.sign(m)

    def test_sign_flips_on_swap(self, two_arms):
        fit1, fit2 = two_arms
        forward = one_sided_wald(fit1, fit2, SHAPE_EQ)
        backward = one_sided_wald(fit2, fit1, SHAPE_EQ)
        assert forward.statistic == pytest.approx(-backward.statistic, abs=1e-10)

    def test_two_sided_p_coherence(self, two_arms):
        fit1, fit2 = two_arms
        two_sided = two_sample_wald(fit1, fit2, SHAPE_EQ)
        p1 = one_sided_wald(fit1, fit2, SHAPE_EQ).p_value
        assert two_sided.p_value == pytest.approx(2 * min(p1, 1 - p1), rel=1e-10)

    def test_requires_rank_one(self, two_arms):
        fit1, fit2 = two_arms
        with pytest.raises(ValueError, match="rank-one"):
            one_sided_wald(fit1, fit2, HOM)

    def test_consistency_against_fixed_alternative(self):
        base = SyntheticDesign(lifetime=FamilySpec("weibull", (2.0, 5.0)), censoring_mean=17.4, seed=55)
        shifted = SyntheticDesign(lifetime=FamilySpec("weibull", (2.0, 3.2)), censoring_mean=17.4, seed=56)
        rates = {}
        for n in (100, 400):
            hits = 0
            for rep in range(60):
                fit1 = fit(simulate(base, n, replication=rep), WEIBULL, FitConfig(alpha=0.3))
                fit2 = fit(simulate(shifted, n, replication=rep), WEIBULL, FitConfig(alpha=0.3))
                hits += one_sided_wald(fit1, fit2, SHAPE_EQ).p_value < 0.05
            rates[n] = hits / 60
        assert rates[400] >= rates[100]
        assert rates[400] >= 0.9


class TestPowerApproximations:
    def test_midpoint_half(self):
        sigma = np.eye(2)
        n1 = n2 = 80
        scale = n1 * n2 / (n1 + n2)
        target = np.sqrt(chi2_quantile(1, 0.05) / scale)
        theta1 = np.array([2.0, 5.0 + target])
        theta2 = np.array([2.0, 5.0])
        got = two_sample_power_approx(theta1, theta2, SHAPE_EQ, sigma, sigma, n1, n2)
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_large_separation_saturates(self):
        got = two_sample_power_approx(
            np.array([2.0, 8.0]), np.array([2.0, 4.0]), SHAPE_EQ,
            np.eye(2), np.eye(2), 200, 200,
        )
        assert got > 0.999

    def test_null_point_rejected(self):
        with pytest.raises(ValueError, match="null"):
            two_sample_power_approx(
                np.array([2.0, 5.0]), np.array([2.0, 5.0]), SHAPE_EQ,
                np.eye(2), np.eye(2), 50, 50,
            )

    def test_veteran_borderline_case(self, veteran):
        fit1 = fit(veteran["A"], WEIBULL, FitConfig(alpha=0.0))
        fit2 = fit(veteran["B"], WEIBULL, FitConfig(alpha=0.0))
        report = one_sided_wald(fit1, fit2, SHAPE_EQ)
        assert report.p_value < 0.10  # borderline-significant published analysis
        power = two_sample_power_approx(
            fit1.theta_hat, fit2.theta_hat, SHAPE_EQ,
            fit1.sigma_hat, fit2.sigma_hat, fit1.n, fit2.n,
        )
        assert 0.2 < power < 0.9999


class TestContiguous:
    def test_zero_shifts_give_level(self):
        got = two_sample_contiguous(
            np.zeros(2), np.zeros(2), HOM, np.eye(2), 0.5, (2.0, 5.0), (2.0, 5.0)
        )
        assert got == pytest.approx(0.05, abs=1e-12)

    def test_common_shift_cancels_under_homogeneity(self):
        delta = np.array([0.7, -0.4])
        got = two_sample_contiguous(
            delta, delta, HOM, np.eye(2), 0.5, (2.0, 5.0), (2.0, 5.0)
        )
        assert got == pytest.approx(0.05, abs=1e-12)

    def test_scalar_cross_check(self):
        sigma_tilde = np.array([[1.3]])
        delta1 = np.array([0.0, 1.0])
        got = two_sample_contiguous(
            delta1, np.zeros(2), SHAPE_EQ, sigma_tilde, 0.25, (2.0, 5.0), (2.0, 5.0)
        )
        from scipy import stats

        ncp = 0.25 * 1.0 / 1.3
        z = np.sqrt(chi2_quantile(1, 0.05))
        expected = stats.norm.sf(z - np.sqrt(ncp)) + stats.norm.cdf(-z - np.sqrt(ncp))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_omega_validated(self):
        with pytest.raises(ValueError, match="omega"):
            two_sample_contiguous(
                np.zeros(2), np.zeros(2), HOM, np.eye(2), 1.5, (2.0, 5.0), (2.0, 5.0)
            )


class TestLinearTwoSampleRestriction:
    def test_matrices_are_read_only_copies(self):
        a1, a2 = np.eye(2), -np.eye(2)
        restriction = LinearTwoSampleRestriction(a1, a2, np.zeros(2))
        assert a1.flags.writeable and a2.flags.writeable
        for own, caller in ((restriction.matrix1, a1), (restriction.matrix2, a2)):
            assert not np.shares_memory(own, caller) and not own.flags.writeable
        theta = np.array([2.0, 5.0])
        restriction.validate_at(theta, theta)
        a1[:] = 0.0
        a2[:] = 0.0
        restriction.validate_at(theta, theta)  # rank taken once, still 2

    def test_wald_uses_the_validated_m_and_jacobians(self, two_arms, monkeypatch):
        fit1, fit2 = two_arms
        expected = two_sample_wald(fit1, fit2, HOM).statistic
        m, jac1, jac2 = HOM.validate_at(fit1.theta_hat, fit2.theta_hat)
        np.testing.assert_array_equal(m, HOM.m(fit1.theta_hat, fit2.theta_hat))
        np.testing.assert_array_equal(jac1, HOM.matrix1)
        np.testing.assert_array_equal(jac2, HOM.matrix2)
        calls = []
        for name in ("m", "jacobian1", "jacobian2"):
            method = getattr(LinearTwoSampleRestriction, name)
            monkeypatch.setattr(
                LinearTwoSampleRestriction, name,
                lambda self, *a, _n=name, _f=method: calls.append(_n) or _f(self, *a),
            )
        assert two_sample_wald(fit1, fit2, HOM).statistic == expected
        assert sorted(calls) == ["jacobian1", "jacobian2", "m"]

    def test_exact_jacobians_without_finite_differences(self, monkeypatch):
        def no_fd(*args):
            raise AssertionError("finite differences of a linear restriction")

        monkeypatch.setattr(twosample, "_central_differences", no_fd)
        theta = np.array([2.0, 5.0])
        HOM.validate_at(theta, theta)
        SHAPE_EQ.negated().validate_at(theta, theta)
        degenerate = LinearTwoSampleRestriction(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(1))
        for _ in range(2):
            with pytest.raises(ValueError, match="rank-deficient"):
                degenerate.validate_at(theta, theta)
