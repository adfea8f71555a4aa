import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special, stats

from robustsurv import (
    FamilySpec,
    FitConfig,
    FunctionRestriction,
    LinearRestriction,
    LinearTwoSampleRestriction,
    SyntheticDesign,
    WEIBULL,
    contiguous_power,
    fit,
    fit_grid,
    lambda_model,
    noncentral_chi2_sf,
    noncentral_weights,
    power_approx,
    simulate,
    two_sample_contiguous,
    two_sample_power_approx,
    wald_statistic,
)
from robustsurv import hypothesis as hypothesis_module
from robustsurv import two_sample_wald
from robustsurv.hypothesis import _poisson_mixture, chi2_quantile, chi2_sf
from robustsurv.twosample import _stacked_sigma
from small_algebra_oracle import reference_wald_form


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


def covariance(a, b, c):
    """The symmetric positive semi-definite L L^T with L = [[a, 0], [b, c]]."""
    return np.array([[a * a, a * b], [a * b, b * b + c * c]])


positive = st.floats(0.05, 50.0)
factor = st.tuples(st.floats(0.01, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 10.0))
ONE_SAMPLE_NULLS = (
    LinearRestriction.simple((2.0, 5.0)),
    LinearRestriction(np.array([[1.0, 1.0], [1.0, -1.0]]), (7.0, -3.0)),
    LinearRestriction(np.array([[0.3, 2.1], [1.7, -0.9]]), (1.1, -0.4)),
    LinearRestriction.component(0, 2.0, 2),
    LinearRestriction.component(1, 5.0, 2),
    FunctionRestriction(r=1, m_func=lambda th: np.array([th[0] * th[1] - 10.0])),
    FunctionRestriction(
        r=2,
        m_func=lambda th: np.array([th[0] * th[1] - 10.0, th[0] - th[1]]),
        jacobian_func=lambda th: np.array([[th[1], 1.0], [th[0], -1.0]]),
    ),
)
TWO_SAMPLE_NULLS = (
    LinearTwoSampleRestriction.homogeneity(2),
    LinearTwoSampleRestriction.component_equal(1, 2),
    FunctionRestriction(
        r=1,
        m_func=lambda th: [th[1] / th[3] - 1.0],
        jacobian_func=lambda th: [[0.0], [1.0 / th[3]], [0.0], [-th[1] / th[3] ** 2]],
    ),
)


def same_outcome(got, expected):
    """Both calls raise the same error, or return the same bits (repr)."""
    try:
        want = expected()
    except (np.linalg.LinAlgError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            got()
        return
    assert repr(got()) == repr(want)


class TestFloatWaldForms:
    """The Wald tests on floats (straight-line M^T Sigma M and Cramer solve)
    give the bits of validate_at's arrays through the list-form algebra of
    small_algebra_oracle."""

    @given(st.tuples(positive, positive), factor, st.integers(5, 500))
    def test_one_sample_bits(self, weibull_fit, theta, lower, n):
        fr = replace(weibull_fit, theta_hat=np.array(theta), sigma_hat=covariance(*lower), n=n)
        for restriction in ONE_SAMPLE_NULLS:
            def got():
                report = wald_statistic(fr, restriction)
                return report.statistic, report.p_value, report.diagnostics["inner_cond"]

            def expected():
                m, jac = (a.tolist() for a in restriction.validate_at(fr.theta_hat))
                form, _, cond = reference_wald_form(m, jac, fr.sigma_hat.tolist())
                return fr.n * form, chi2_sf(restriction.r, fr.n * form), cond

            same_outcome(got, expected)

    @given(st.tuples(positive, positive, positive, positive), factor, factor, st.integers(5, 300), st.integers(5, 300))
    def test_two_sample_bits(self, weibull_fit, theta, lower1, lower2, n1, n2):
        fit1 = replace(weibull_fit, theta_hat=np.array(theta[:2]), sigma_hat=covariance(*lower1), n=n1)
        fit2 = replace(weibull_fit, theta_hat=np.array(theta[2:]), sigma_hat=covariance(*lower2), n=n2)
        for restriction in TWO_SAMPLE_NULLS:
            def got():
                report = two_sample_wald(fit1, fit2, restriction)
                return report.statistic, report.p_value, report.sigma_tilde.tolist(), report.diagnostics

            def expected():
                m, jac = (a.tolist() for a in restriction.validate_at(np.array(theta)))
                sigma = _stacked_sigma(n2 / (n1 + n2), fit1.sigma_hat, fit2.sigma_hat)
                form, inner, cond = reference_wald_form(m, jac, sigma)
                statistic = n1 * n2 / (n1 + n2) * form
                return statistic, chi2_sf(restriction.r, statistic), inner, {"sigma_tilde_cond": cond}

            same_outcome(got, expected)

    def test_wrong_size_theta_raises_as_validate_at(self, weibull_fit):
        restriction = LinearRestriction.simple((2.0, 5.0, 1.0))
        with pytest.raises(ValueError) as caught:
            restriction.validate_at(weibull_fit.theta_hat)
        with pytest.raises(ValueError, match=f"^{re.escape(str(caught.value))}$"):
            wald_statistic(weibull_fit, restriction)


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

    def test_tiny_power_is_not_rounded_to_zero(self):
        # z = sqrt(n / var*) (q / n - wbar) is about 10 here, where 1 - Phi(z)
        # would round to 0; wbar = delta^2 / 2 and var* = 2 delta^2 exactly
        sigma, n, delta = np.array([[2.0]]), 50, 0.0384
        got = power_approx(np.array([1.0 + delta]), LinearRestriction.simple((1.0,)), sigma, n, 0.05)
        z = np.sqrt(n / (2.0 * delta**2)) * (chi2_quantile(1, 0.05) / n - delta**2 / 2.0)
        assert z > 9.5
        assert got == pytest.approx(stats.norm.sf(z), rel=1e-6, abs=0)

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


class TestChiSquareAgainstScipy:
    # the package computes its chi-square tails and quantiles without scipy;
    # scipy.special is the oracle here
    Q = np.concatenate(([0.0], np.logspace(-3, np.log10(300.0), 241)))

    @pytest.mark.parametrize("df", range(1, 7))
    def test_tail(self, df):
        got = [chi2_sf(df, q) for q in self.Q]
        np.testing.assert_allclose(got, special.chdtrc(df, self.Q), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("df", range(1, 7))
    @pytest.mark.parametrize("ncp", [0.0, 0.3, 5.0, 60.0])
    def test_noncentral_tail_is_the_mixture_of_central_tails(self, df, ncp):
        # the oracle mixture runs to 400 terms, far past any truncation, so
        # it also checks where the series stops on a small tail
        weights = stats.poisson.pmf(np.arange(400), 0.5 * ncp)
        kept = noncentral_weights(ncp)
        np.testing.assert_allclose(kept, weights[:kept.size], rtol=1e-13, atol=0)
        dfs = df + 2.0 * np.arange(weights.size)
        for q in (0.01, 1.0, chi2_quantile(df, 0.05), 25.0, 120.0):
            assert noncentral_chi2_sf(q, df, ncp) == pytest.approx(
                float(weights @ special.chdtrc(dfs, q)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("q, df, ncp", [(100.0, 2, 10.0), (30.0, 1, 0.1)])
    def test_small_noncentral_tail_keeps_its_relative_accuracy(self, q, df, ncp):
        # tails of 7e-12 and 1.3e-7: the series must stop relative to the
        # tail summed, not to the Poisson mass
        assert noncentral_chi2_sf(q, df, ncp) == pytest.approx(stats.ncx2.sf(q, df, ncp), rel=1e-12, abs=0)

    @pytest.mark.parametrize("ncp", [1400.0, 3000.0, 12345.6])
    def test_large_noncentrality_does_not_underflow(self, ncp):
        # e^(-ncp/2) underflows from ncp = 1490 on; the weights come down from
        # the Poisson mode instead.  scipy's pmf is itself good to about 1e-11
        # relative there (xlogy - gammaln - mu at k ~ ncp/2)
        kept = noncentral_weights(ncp)
        weights = stats.poisson.pmf(np.arange(kept.size), 0.5 * ncp)
        np.testing.assert_allclose(kept, weights, rtol=2e-11, atol=1e-300)
        assert math.fsum(kept) == pytest.approx(1.0, abs=1e-14)
        assert noncentral_chi2_sf(5.0, 2, 3000.0) == pytest.approx(stats.ncx2.sf(5.0, 2, 3000.0), rel=1e-14)
        for q in (0.9 * ncp, ncp, 1.1 * ncp):
            assert noncentral_chi2_sf(q, 2, ncp) == pytest.approx(stats.ncx2.sf(q, 2, ncp), rel=1e-11)

    @pytest.mark.parametrize("ncp", [1.95e5, 1.98e5, 2.0e5, 2.0e5 + 10.0, 2.5e5])
    def test_noncentrality_past_the_term_cap(self, ncp):
        # once the mode plus 10 sqrt(s/2) passes the 100 000-term cap, the
        # weights start 10 sqrt(s/2) below the mode and the cap counts from
        # there (counted from v = 0, the sum stopped short: at s/2 = 99 000 it
        # kept 0.9992 of the mass, at 1e5 half, at 1.25e5 none).  scipy's pmf
        # is itself good to about 1e-9 relative at k ~ 1e5
        kept = noncentral_weights(ncp)
        first = int(np.flatnonzero(kept)[0])
        assert first == int(0.5 * ncp) - math.ceil(10.0 * math.sqrt(0.5 * ncp))
        weights = stats.poisson.pmf(np.arange(kept.size), 0.5 * ncp)
        assert weights[:first].sum() < 1e-20
        np.testing.assert_allclose(kept[first:], weights[first:], rtol=2e-9, atol=1e-300)
        assert math.fsum(kept) == pytest.approx(1.0, abs=1e-14)
        for q in (0.99 * ncp, ncp, 1.01 * ncp):
            assert noncentral_chi2_sf(q, 2, ncp) == pytest.approx(stats.ncx2.sf(q, 2, ncp), rel=1e-9)
        assert noncentral_chi2_sf(10.0, 2, ncp) == pytest.approx(1.0, abs=1e-14)

    def test_noncentrality_within_the_window_the_cap_holds(self):
        # the cap holds the 20 sqrt(s/2) terms from 10 sqrt(s/2) below the
        # mode up to s = 5e7: there the kept weights still sum to 1 short of
        # the cap, and beyond it (or at inf or NaN) the mixture raises rather
        # than cut the sum short
        first, weights, _ = _poisson_mixture(5e7, itertools.repeat(1.0))
        assert first == 25_000_000 - 50_000 and len(weights) < 100_000
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
        for ncp in (math.nextafter(5e7, math.inf), 1e9, math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match=r"noncentrality must lie in \[0, 5e7\]"):
                noncentral_chi2_sf(10.0, 2, ncp)
            with pytest.raises(ValueError, match=r"noncentrality must lie in \[0, 5e7\]"):
                noncentral_weights(ncp)

    @pytest.mark.parametrize("q, df, ncp", [(1.0, 2, 200.0), (5.0, 2, 1300.0), (5.0, 2, 3000.0), (10.0, 2, 1.9e5)])
    def test_noncentral_tail_is_a_probability(self, q, df, ncp):
        # the kept weights' rounding summed these past 1 (by up to 1.3e-15)
        assert noncentral_chi2_sf(q, df, ncp) == 1.0 == pytest.approx(stats.ncx2.sf(q, df, ncp), abs=1e-15)

    def test_small_noncentrality_keeps_the_upward_recurrence(self):
        # below s/2 = 700: w_0 = e^(-s/2), then w_{v+1} = w_v (s/2) / (v + 1),
        # term by term
        for ncp in (0.0, 0.066, 0.5, 1.99, 60.0, 1399.0):
            expected = [math.exp(-0.5 * ncp)]
            for v in range(noncentral_weights(ncp).size - 1):
                expected.append(expected[-1] * (0.5 * ncp) / (v + 1))
            assert noncentral_weights(ncp).tolist() == expected

    @pytest.mark.parametrize("df", range(1, 5))
    def test_quantile(self, df):
        levels = np.concatenate((np.logspace(-12, -1, 45), np.linspace(0.1, 0.99, 30)))
        got = [chi2_quantile(df, level) for level in levels]
        np.testing.assert_allclose(got, special.chdtri(df, levels), rtol=1e-13, atol=0)

    def test_edge_values(self):
        assert chi2_sf(1, 0.0) == chi2_sf(4, 0.0) == 1.0
        assert chi2_sf(3, np.inf) == 0.0
        assert np.isnan(chi2_sf(2, np.nan))
        # e^-x underflows at q = 2000, the tail of a large df does not
        assert chi2_sf(1999, 2000.0) == pytest.approx(special.chdtrc(1999, 2000.0), rel=1e-12)

    @pytest.mark.parametrize("df", [0, -1, 1.5])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(ValueError, match="positive integer"):
            chi2_sf(df, 1.0)


@pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.1, float("nan")])
def test_level_outside_unit_interval_is_refused(level):
    # chi2_quantile is the one level check; every power function goes through it
    one, hom = LinearRestriction.simple((1.0,)), LinearTwoSampleRestriction.homogeneity(1)
    calls = (
        lambda: chi2_quantile(1, level),
        lambda: power_approx(np.array([1.4]), one, np.eye(1), 50, level),
        lambda: contiguous_power(np.ones(1), one, np.eye(1), (1.0,), level),
        lambda: two_sample_power_approx([1.0], [1.4], hom, np.eye(1), np.eye(1), 50, 50, level),
        lambda: two_sample_contiguous([1.0], [0.0], hom, np.eye(1), 0.5, [1.0], [1.0], level),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            call()
