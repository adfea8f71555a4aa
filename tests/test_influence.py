import itertools

import numpy as np
import pytest
from scipy import integrate, special, stats

from robustsurv import (
    EXPONENTIAL,
    LinearRestriction,
    LinearTwoSampleRestriction,
    SingularSensitivityError,
    WEIBULL,
    contaminated_contiguous_power,
    contiguous_power,
    if2_two_sample,
    if2_wald,
    if_curve,
    if_estimator,
    kstar,
    lambda_model,
    mdpde_psi,
    noncentral_chi2_sf,
    pif,
    sigma_model,
)
from robustsurv.hypothesis import _poisson_mixture


def exp_if_paper(t, theta0, alpha):
    if alpha == 0.0:
        return theta0 - t
    return (1 + alpha) ** 3 / (1 + alpha**2) * (
        (theta0 - t) * np.exp(-alpha * t / theta0) - alpha * theta0 / (1 + alpha) ** 2
    )


class TestEstimatorIF:
    def test_exponential_amle_is_linear(self):
        t = np.array([0.05, 0.5, 3.0, 10.0])
        got = if_estimator(EXPONENTIAL, [2.0], 0.0, t)[:, 0]
        np.testing.assert_allclose(got, 2.0 - t, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("theta0", [0.7, 1.0, 3.5])
    def test_exponential_closed_form(self, alpha, theta0):
        t = np.geomspace(0.01, 50.0, 50)
        got = if_estimator(EXPONENTIAL, [theta0], alpha, t)[:, 0]
        np.testing.assert_allclose(got, exp_if_paper(t, theta0, alpha), rtol=1e-8)

    def test_scalar_input_shape(self):
        assert if_estimator(EXPONENTIAL, [1.0], 0.5, 2.0).shape == (1,)
        assert if_estimator(WEIBULL, (2.0, 5.0), 0.5, 2.0).shape == (2,)

    def test_bounded_vs_unbounded_over_alpha(self):
        grid = np.geomspace(0.01, 1e6, 400)
        bounded = np.linalg.norm(if_estimator(WEIBULL, (2.0, 5.0), 0.5, grid), axis=1)
        assert np.isfinite(bounded).all()
        unbounded = np.linalg.norm(if_estimator(EXPONENTIAL, [1.0], 0.0, grid), axis=1)
        assert unbounded[-1] > 1e5

    def test_singular_lambda_raises_like_the_sandwich(self):
        # cond(Lambda) is about 2.6e14 at scale 1e7: above the sandwich's 1e12
        theta0, grid = (1e7, 1.0), np.geomspace(1e-2, 1e2, 5)
        with pytest.raises(SingularSensitivityError):
            sigma_model(WEIBULL, theta0, 0.5)
        with pytest.raises(SingularSensitivityError):
            if_estimator(WEIBULL, theta0, 0.5, grid)
        with pytest.raises(SingularSensitivityError):
            if_curve(WEIBULL, theta0, 0.5, grid)

    def test_psi_scaling_leaves_if_invariant(self):
        # scaling psi by c scales Lambda by c; the IF solve cancels it
        lam = lambda_model(EXPONENTIAL, [1.0], 0.5)
        psi = mdpde_psi(EXPONENTIAL, [1.0], 0.5, 3.0)
        base = np.linalg.solve(lam, psi)
        scaled = np.linalg.solve(7.3 * lam, 7.3 * psi)
        np.testing.assert_allclose(scaled, base, rtol=1e-14)

    def test_curve_csv(self, tmp_path):
        curve = if_curve(WEIBULL, (2.0, 5.0), 0.5, np.linspace(0.1, 5.0, 7))
        out = tmp_path / "if.csv"
        curve.write_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,if_scale,if_shape"


class TestSigmaModel:
    def test_exponential_alpha_zero_is_cramer_rao(self):
        got = sigma_model(EXPONENTIAL, [2.0], 0.0)
        assert got[0, 0] == pytest.approx(4.0, rel=1e-10)

    def test_matches_quadrature_assembly(self):
        theta = np.array([2.0, 5.0])
        alpha = 0.4
        from quadrature_oracle import integrate_unit, unit_substitution

        def integrand(t):
            x, jac = unit_substitution(WEIBULL, theta, t)
            f = np.exp(WEIBULL.logpdf(theta, x)) * jac
            psi = mdpde_psi(WEIBULL, theta, alpha, x)
            iu, ju = np.triu_indices(2)
            return np.column_stack([psi[:, i] * psi[:, j] * f for i, j in zip(iu, ju)])

        flat = integrate_unit(integrand, atol=1e-10, rtol=1e-10)
        c0 = np.array([[flat[0], flat[1]], [flat[1], flat[2]]])
        lam = lambda_model(WEIBULL, theta, alpha)
        expected = np.linalg.inv(lam) @ c0 @ np.linalg.inv(lam)
        np.testing.assert_allclose(sigma_model(WEIBULL, theta, alpha), expected, rtol=1e-7)


def exp_psi_root(theta0, alpha):
    """Interior zero of the scalar exponential estimating function."""
    from scipy.optimize import brentq

    return brentq(
        lambda t: mdpde_psi(EXPONENTIAL, [theta0], alpha, t)[0], 0.2 * theta0, 1.2 * theta0,
        xtol=1e-14,
    )


class TestIf2Wald:
    def test_zero_where_psi_vanishes(self):
        alpha, theta0 = 0.5, 1.0
        restriction = LinearRestriction.simple((theta0,))
        got = if2_wald(EXPONENTIAL, [theta0], alpha, restriction, exp_psi_root(theta0, alpha))
        assert got == pytest.approx(0.0, abs=1e-20)

    def test_nonnegative_quadratic_form(self):
        grid = np.geomspace(0.05, 30.0, 60)
        restriction = LinearRestriction.component(1, 5.0, 2)
        got = if2_wald(WEIBULL, (2.0, 5.0), 0.5, restriction, grid)
        assert np.all(got >= 0.0)

    def test_two_path_assembly_exponential_amle(self):
        theta0 = 1.3
        restriction = LinearRestriction.simple((theta0,))
        sigma = sigma_model(EXPONENTIAL, [theta0], 0.0)
        t = np.array([0.4, 2.0, 6.0])
        got = if2_wald(EXPONENTIAL, [theta0], 0.0, restriction, t, sigma=sigma)
        lam = lambda_model(EXPONENTIAL, [theta0], 0.0)[0, 0]
        psi = mdpde_psi(EXPONENTIAL, [theta0], 0.0, t)[:, 0]
        expected = 2.0 * psi**2 * lam**-2 / sigma[0, 0]
        np.testing.assert_allclose(got, expected, atol=1e-10)
        np.testing.assert_allclose(got, 2.0 * (theta0 - t) ** 2 / sigma[0, 0], atol=1e-10)

    def test_off_null_rejected(self):
        with pytest.raises(ValueError, match="null"):
            if2_wald(EXPONENTIAL, [2.0], 0.5, LinearRestriction.simple((1.0,)), 1.0)


def poisson_weights(s):
    """The Poisson(s/2) weights that the noncentral series keeps, from v = 0
    (below the mixture's window switch)."""
    first, weights, _ = _poisson_mixture(s, lambda first: itertools.repeat(1.0))
    assert first == 0
    return np.array(weights)


class TestNoncentralSeries:
    def test_degenerate_weights(self):
        weights = poisson_weights(0.0)
        assert weights[0] == 1.0 and weights.sum() == 1.0

    @pytest.mark.parametrize("s", [0.5, 5.0, 50.0])
    def test_weights_normalize(self, s):
        assert poisson_weights(s).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("df,ncp", [(1, 5.0), (2, 0.7), (4, 12.0)])
    def test_series_matches_quadrature(self, df, ncp):
        q = special.chdtri(df, 0.05)
        series = noncentral_chi2_sf(q, df, ncp)
        quadrature, err = integrate.quad(
            lambda x: stats.ncx2.pdf(x, df, ncp), q, np.inf, epsabs=1e-13, epsrel=1e-13
        )
        assert series == pytest.approx(quadrature, abs=1e-8)

    def test_negative_ncp_rejected(self):
        with pytest.raises(ValueError):
            poisson_weights(-1.0)

    @pytest.mark.parametrize("s", [0.3, 2.0, 9.0])
    def test_kstar_equals_printed_series(self, s):
        # raw printed series: e^{-s/2} sum_v s^{v-1} 2^{-v} (2v - s) P_v / v!
        # with the coefficient s^{v-1} 2^{-v} / v! carried by recurrence
        p, level = 1, 0.05
        c = special.chdtri(p, level)
        total = 0.0
        coeff = 1.0 / s  # v = 0 value of s^{v-1} 2^{-v} / v!
        for v in range(400):
            total += coeff * (2 * v - s) * special.chdtrc(p + 2 * v, c)
            coeff *= s / (2.0 * (v + 1))
            if coeff * (2 * v + 2 + s) < 1e-18:
                break
        raw = np.exp(-s / 2) * total
        assert kstar(s, p, level) == pytest.approx(raw, rel=1e-10)

    @pytest.mark.parametrize("p, s", [(1, 50.0), (1, 300.0), (2, 300.0), (3, 50.0)])
    def test_kstar_terms_are_densities(self, p, s):
        # each difference of adjacent tails is 2 chi2_{p+2u+2} density at c;
        # at large s the subtraction of nearly equal tails lost whole digits
        level = 0.05
        weights = poisson_weights(s)
        densities = stats.chi2.pdf(special.chdtri(p, level), p + 2.0 + 2.0 * np.arange(weights.size))
        assert kstar(s, p, level) == pytest.approx(2.0 * float(weights @ densities), rel=1e-12, abs=0)

    def test_kstar_continuous_at_zero(self):
        p, level = 2, 0.05
        c = special.chdtri(p, level)
        limit = special.chdtrc(p + 2, c) - special.chdtrc(p, c)
        assert kstar(0.0, p, level) == pytest.approx(limit, abs=1e-14)
        assert kstar(1e-9, p, level) == pytest.approx(limit, abs=1e-8)


class TestPif:
    def test_zero_at_psi_root(self):
        alpha, theta0 = 0.5, 1.0
        restriction = LinearRestriction.simple((theta0,))
        got = pif(
            EXPONENTIAL, [theta0], alpha, restriction, np.array([0.5]),
            exp_psi_root(theta0, alpha),
        )
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_boundedness_contrast(self):
        grid = np.geomspace(0.1, 1e6, 200)
        restriction = LinearRestriction.simple((1.0,))
        d = np.array([0.5])
        robust = pif(EXPONENTIAL, [1.0], 0.5, restriction, d, grid)
        assert np.max(np.abs(robust)) < 10.0
        fragile = pif(EXPONENTIAL, [1.0], 0.0, restriction, d, grid)
        tail = np.abs(fragile[-50:])
        assert np.all(np.diff(tail) > 0)  # grows without bound, linearly in t

    def test_matches_derivative_of_power_series(self):
        theta0, alpha = 1.0, 0.5
        restriction = LinearRestriction.simple((theta0,))
        d = np.array([0.8])
        sigma = sigma_model(EXPONENTIAL, [theta0], alpha)
        for t in (0.3, 2.0, 7.0):
            eps = 1e-4
            up = contaminated_contiguous_power(
                EXPONENTIAL, [theta0], alpha, restriction, d, eps, t, sigma=sigma
            )
            down = contaminated_contiguous_power(
                EXPONENTIAL, [theta0], alpha, restriction, d, -eps, t, sigma=sigma
            )
            fd = (up - down) / (2 * eps)
            got = pif(EXPONENTIAL, [theta0], alpha, restriction, d, t, sigma=sigma)
            assert got == pytest.approx(fd, abs=1e-5)

    def test_singular_sigma_raises_as_the_power_does(self):
        # cond(M^T Sigma M) = 1e13 is past the Wald core's 1e12: the
        # contiguous power, its contaminated form (whose epsilon-derivative
        # is the PIF), the PIF and the test's IF2 all refuse it alike
        theta0 = (2.0, 5.0)
        restriction = LinearRestriction.simple(theta0)
        sigma, d, grid = np.diag([1.0, 1e-13]), np.ones(2), np.array([1.0, 3.0])
        calls = (
            lambda: contiguous_power(d, restriction, sigma, theta0),
            lambda: contaminated_contiguous_power(
                WEIBULL, theta0, 0.5, restriction, d, 0.1, 1.0, sigma=sigma
            ),
            lambda: pif(WEIBULL, theta0, 0.5, restriction, d, grid, sigma=sigma),
            lambda: if2_wald(WEIBULL, theta0, 0.5, restriction, grid, sigma=sigma),
        )
        for call in calls:
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                call()

    def test_zero_direction_is_level_case(self):
        restriction = LinearRestriction.simple((1.0,))
        # the LIF is the PIF at d = 0, identically zero
        assert pif(EXPONENTIAL, [1.0], 0.5, restriction, np.zeros(1), 3.0) == 0.0

    @pytest.mark.parametrize("level", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("d", [0.0, 1.0])
    def test_level_outside_unit_interval_is_refused(self, level, d):
        restriction = LinearRestriction.simple((1.0,))
        calls = (
            lambda: pif(EXPONENTIAL, [1.0], 0.5, restriction, np.full(1, d), 3.0, level),
            lambda: contaminated_contiguous_power(
                EXPONENTIAL, [1.0], 0.5, restriction, np.full(1, d), 0.1, 3.0, level),
            lambda: kstar(d, 1, level),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
                call()


class TestIf2TwoSample:
    HOM = LinearTwoSampleRestriction.homogeneity(1)

    def test_identical_contamination_cancels(self):
        got = if2_two_sample(EXPONENTIAL, [1.0], [1.0], 0.5, self.HOM, t1=3.0, t2=3.0)
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_single_arm_nonnegative(self):
        grid = np.geomspace(0.05, 20.0, 30)
        values = [
            if2_two_sample(EXPONENTIAL, [1.0], [1.0], 0.5, self.HOM, t1=float(t))
            for t in grid
        ]
        assert all(v >= 0.0 for v in values)

    def test_joint_reduces_to_single_arm_at_psi_root(self):
        alpha, theta0 = 0.5, 1.0
        joint = if2_two_sample(
            EXPONENTIAL, [theta0], [theta0], alpha, self.HOM,
            t1=2.5, t2=exp_psi_root(theta0, alpha),
        )
        single = if2_two_sample(EXPONENTIAL, [theta0], [theta0], alpha, self.HOM, t1=2.5)
        assert joint == pytest.approx(single, abs=1e-10)

    def test_requires_contamination_point(self):
        with pytest.raises(ValueError, match="contamination point"):
            if2_two_sample(EXPONENTIAL, [1.0], [1.0], 0.5, self.HOM)

    def test_off_null_rejected(self):
        with pytest.raises(ValueError, match="null"):
            if2_two_sample(EXPONENTIAL, [1.0], [2.0], 0.5, self.HOM, t1=1.0)

    @pytest.mark.parametrize(
        "restriction",
        [LinearTwoSampleRestriction.homogeneity(2), LinearTwoSampleRestriction.component_equal(1, 2)],
    )
    def test_omega_weights_the_pooled_matrix(self, restriction):
        theta0, alpha, omega = np.array([2.0, 5.0]), 0.5, 0.3
        sigma1 = sigma_model(WEIBULL, theta0, alpha)
        sigma2 = np.array([[0.05, 0.02], [0.02, 3.0]])
        m1, m2 = restriction.matrix1, restriction.matrix2
        pooled = omega * m1.T @ sigma1 @ m1 + (1.0 - omega) * m2.T @ sigma2 @ m2
        q = m1.T @ if_estimator(WEIBULL, theta0, alpha, 1.0) + m2.T @ if_estimator(
            WEIBULL, theta0, alpha, 3.0
        )
        expected = 2.0 * q @ np.linalg.solve(pooled, q)
        got = if2_two_sample(
            WEIBULL, theta0, theta0, alpha, restriction, t1=1.0, t2=3.0,
            omega=omega, sigma1=sigma1, sigma2=sigma2,
        )
        assert got == pytest.approx(expected, rel=1e-12)
        half = if2_two_sample(
            WEIBULL, theta0, theta0, alpha, restriction, t1=1.0, t2=3.0,
            sigma1=sigma1, sigma2=sigma2,
        )
        assert abs(half - got) > 1e-3 * got

    def test_weibull_shape_restriction_grid(self):
        restriction = LinearTwoSampleRestriction.component_equal(1, 2)
        got = if2_two_sample(
            WEIBULL, (2.0, 5.0), (2.0, 5.0), 0.5, restriction, t1=1.0, t2=3.0
        )
        assert np.isfinite(got) and got >= 0.0
