import numpy as np
import pytest

from robustsurv import EXPONENTIAL, WEIBULL, get_family, lambda_model, mdpde_psi

from quadrature_oracle import (
    QuadratureError,
    integrate_unit,
    unit_substitution,
    weighted_integrals_quadrature,
)

THETA_GRID_EXP = [0.5, 1.0, 2.0, 7.3]
ALPHA_GRID = [0.0, 0.1, 0.3, 0.5, 1.0]


def exp_psi_paper(x, theta, alpha):
    """Closed form from the exponential worked example."""
    return (theta - x) / theta ** (alpha + 2) * np.exp(-alpha * x / theta) - alpha / (
        (1 + alpha) ** 2 * theta ** (alpha + 1)
    )


def exp_lambda_paper(theta, alpha):
    return (1 + alpha**2) * (1 + alpha) ** -3 * theta ** -(alpha + 2)


class TestScore:
    def test_exponential_zero_at_mean(self):
        assert EXPONENTIAL.score([1.0], np.array([1.0]))[0, 0] == 0.0

    def test_exponential_hand_value(self):
        assert EXPONENTIAL.score([2.0], np.array([1.0]))[0, 0] == pytest.approx(-0.25)

    @pytest.mark.parametrize("theta", [(2.0, 5.0), (0.7, 0.9), (123.0, 0.99)])
    def test_weibull_matches_log_density_gradient(self, theta):
        x = np.array([0.3, 1.0, 2.5, 8.0])
        analytic = WEIBULL.score(theta, x)
        h = 1e-6
        for j in range(2):
            up = np.array(theta, dtype=float)
            down = up.copy()
            up[j] += h * (1 + up[j])
            down[j] -= h * (1 + down[j])
            fd = (WEIBULL.logpdf(up, x) - WEIBULL.logpdf(down, x)) / (up[j] - down[j])
            np.testing.assert_allclose(analytic[:, j], fd, rtol=1e-6, atol=1e-8)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            WEIBULL.score((1.0, 2.0), np.array([0.0]))
        with pytest.raises(ValueError):
            EXPONENTIAL.score([1.0], np.array([-1.0]))


class TestWeightedIntegrals:
    @pytest.mark.parametrize("theta", THETA_GRID_EXP)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_exponential_closed_forms(self, theta, alpha):
        got = EXPONENTIAL.weighted_integrals([theta], alpha)
        assert got.xi == pytest.approx(theta**-alpha / (1 + alpha), rel=1e-12)
        assert got.jvec[0] == pytest.approx(
            -alpha * theta ** -(alpha + 1) / (1 + alpha) ** 2, rel=1e-12, abs=1e-15
        )
        assert got.kmat[0, 0] == pytest.approx(exp_lambda_paper(theta, alpha), rel=1e-12)

    @pytest.mark.parametrize(
        "family,theta",
        [
            (EXPONENTIAL, (1.7,)),
            (WEIBULL, (2.0, 5.0)),
            (WEIBULL, (123.0, 0.99)),
            (WEIBULL, (0.5, 1.5)),
            (WEIBULL, (2.0, 0.8)),
        ],
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_quadrature_reproduces_closed_forms(self, family, theta, alpha):
        closed = family.weighted_integrals(theta, alpha)
        quad = weighted_integrals_quadrature(family, theta, alpha)
        scale = max(abs(closed.xi), 1.0)
        assert abs(closed.xi - quad.xi) <= 1e-8 * scale
        np.testing.assert_allclose(closed.jvec, quad.jvec, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(closed.kmat, quad.kmat, rtol=1e-8, atol=1e-10)

    def test_zero_alpha_score_identity(self):
        for family, theta in [(EXPONENTIAL, (2.0,)), (WEIBULL, (2.0, 5.0))]:
            jvec = family.weighted_integrals(theta, 0.0).jvec
            np.testing.assert_allclose(jvec, 0.0, atol=1e-8)

    def test_quadrature_self_consistency_at_tightened_tolerance(self):
        loose = weighted_integrals_quadrature(WEIBULL, (2.0, 5.0), 0.5, atol=1e-8, rtol=1e-8)
        tight = weighted_integrals_quadrature(WEIBULL, (2.0, 5.0), 0.5, atol=1e-10, rtol=1e-10)
        np.testing.assert_allclose(loose.kmat, tight.kmat, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(loose.jvec, tight.jvec, rtol=1e-7, atol=1e-9)

    def test_kmat_positive_semidefinite(self):
        for theta in [(2.0, 5.0), (0.5, 0.9), (30.0, 1.2)]:
            for alpha in ALPHA_GRID:
                kmat = WEIBULL.weighted_integrals(theta, alpha).kmat
                np.linalg.cholesky(kmat + 1e-12 * np.eye(2))

    def test_weibull_divergent_alpha_shape_combination(self):
        with pytest.raises(ValueError, match="not integrable"):
            WEIBULL.weighted_integrals((1.0, 0.4), 1.0)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            EXPONENTIAL.weighted_integrals([-1.0], 0.5)
        with pytest.raises(ValueError):
            WEIBULL.weighted_integrals((1.0,), 0.5)


class TestMdpdePsi:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_exponential_closed_form(self, theta, alpha):
        x = np.geomspace(0.01, 20.0, 40)
        got = mdpde_psi(EXPONENTIAL, [theta], alpha, x)[:, 0]
        np.testing.assert_allclose(got, exp_psi_paper(x, theta, alpha), rtol=1e-8, atol=1e-12)

    def test_alpha_zero_is_negative_score(self):
        x = np.array([0.2, 1.0, 4.0])
        np.testing.assert_array_equal(
            mdpde_psi(EXPONENTIAL, [1.0], 0.0, x), -EXPONENTIAL.score([1.0], x)
        )
        assert mdpde_psi(EXPONENTIAL, [1.0], 0.0, 1.0)[0] == 0.0

    @pytest.mark.parametrize(
        "family,theta", [(EXPONENTIAL, (2.0,)), (WEIBULL, (2.0, 5.0)), (WEIBULL, (95.0, 0.92))]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_single_pass_matches_public_forms_bitwise(self, family, theta, alpha):
        x = np.geomspace(0.05, 50.0, 30) * theta[0]
        expected = (
            family.weighted_integrals(theta, alpha).jvec[None, :]
            - family.score(theta, x) * np.exp(alpha * family.logpdf(theta, x))[:, None]
        )
        if alpha == 0.0:
            expected = -family.score(theta, x)
        np.testing.assert_array_equal(mdpde_psi(family, theta, alpha, x), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_alpha_must_be_finite_and_nonnegative(self, bad):
        for family, theta in ((EXPONENTIAL, [2.0]), (WEIBULL, [2.0, 5.0])):
            with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
                family.weighted_integrals(theta, bad)
            with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
                mdpde_psi(family, theta, bad, [1.0])

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="alpha"):
            mdpde_psi(EXPONENTIAL, [1.0], -0.1, [1.0])
        with pytest.raises(ValueError, match="positive"):
            mdpde_psi(EXPONENTIAL, [1.0], 0.5, [0.0, 1.0])
        with pytest.raises(ValueError, match="invalid"):
            mdpde_psi(WEIBULL, [1.0, -2.0], 0.5, [1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_overflow_is_a_value_error(self, alpha):
        # (x / scale)^shape overflows at scale 1e-300: no warning, no NaN
        with pytest.raises(ValueError, match="not finite"):
            mdpde_psi(WEIBULL, (1e-300, 2.0), alpha, [1.0])

    def test_bounded_for_positive_alpha(self):
        x = np.geomspace(1e-6, 1e6, 4000)
        values = np.abs(mdpde_psi(EXPONENTIAL, [1.0], 0.5, x)[:, 0])
        assert np.isfinite(values).all()
        assert np.argmax(values) < x.size - 1  # sup not driven by the upper tail
        # grid extension leaves the supremum unchanged (true boundedness)
        wider = np.abs(mdpde_psi(EXPONENTIAL, [1.0], 0.5, np.geomspace(1e-8, 1e9, 6000))[:, 0])
        assert np.max(wider) == pytest.approx(np.max(values), rel=1e-4)

    def test_unbounded_at_alpha_zero(self):
        x = np.geomspace(1.0, 1e6, 60)
        values = np.abs(mdpde_psi(EXPONENTIAL, [1.0], 0.0, x)[:, 0])
        assert np.all(np.diff(values[10:]) > 0)
        assert values[-1] > 1e5

    @pytest.mark.parametrize(
        "family,theta", [(EXPONENTIAL, (2.0,)), (WEIBULL, (2.0, 5.0)), (WEIBULL, (1.0, 0.9))]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_fisher_consistency(self, family, theta, alpha):
        def integrand(t):
            x, jac = unit_substitution(family, np.asarray(theta, dtype=float), t)
            f = np.exp(family.logpdf(theta, x)) * jac
            return mdpde_psi(family, theta, alpha, x) * f[:, None]

        value = integrate_unit(integrand, atol=1e-10, rtol=1e-10)
        assert np.max(np.abs(value)) < 1e-7


class TestLambdaModel:
    @pytest.mark.parametrize("theta", THETA_GRID_EXP)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_exponential_matches_paper(self, theta, alpha):
        got = lambda_model(EXPONENTIAL, [theta], alpha)[0, 0]
        assert got == pytest.approx(exp_lambda_paper(theta, alpha), rel=1e-12)

    def test_alpha_zero_unit_theta(self):
        assert lambda_model(EXPONENTIAL, [1.0], 0.0)[0, 0] == pytest.approx(1.0)

    def test_overflow_is_a_value_error(self):
        # the closed forms run on Python floats, which raise OverflowError
        # where numpy returned inf; the public surface keeps raising ValueError
        with pytest.raises(ValueError, match="sensitivity matrix has non-finite entries"):
            lambda_model(WEIBULL, (1e-300, 2.0), 0.5)
        with pytest.raises(ValueError, match="overflow"):
            WEIBULL.weighted_integrals((1e-300, 2.0), 0.5)

    @pytest.mark.parametrize("theta,alpha", [((2.0, 5.0), 0.5), ((1.5, 1.2), 0.0), ((3.0, 2.0), 1.0)])
    def test_weibull_matches_fd_of_model_average(self, theta, alpha):
        theta = np.asarray(theta, dtype=float)

        def averaged_psi(theta_psi):
            def integrand(t):
                x, jac = unit_substitution(WEIBULL, theta, t)
                f = np.exp(WEIBULL.logpdf(theta, x)) * jac
                return mdpde_psi(WEIBULL, theta_psi, alpha, x) * f[:, None]

            return integrate_unit(integrand, atol=1e-10, rtol=1e-10)

        fd = np.empty((2, 2))
        for j in range(2):
            h = 1e-5 * (1 + abs(theta[j]))
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (averaged_psi(up) - averaged_psi(down)) / (2 * h)
        analytic = lambda_model(WEIBULL, theta, alpha)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


class TestQuadratureEngine:
    def test_polynomial_exact(self):
        got = integrate_unit(lambda t: 5 * t**4)
        assert got[0] == pytest.approx(1.0, rel=1e-13)

    def test_vector_components(self):
        got = integrate_unit(lambda t: np.column_stack([t, t**2, np.sin(t)]))
        np.testing.assert_allclose(got, [0.5, 1 / 3, 1 - np.cos(1)], rtol=1e-10)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"), np.errstate(divide="ignore", invalid="ignore"):
            integrate_unit(lambda t: 1.0 / (t - t))

    def test_nonconvergent_raises(self):
        rng = np.random.default_rng(1)

        def noisy(t):
            return rng.random(t.size)

        with pytest.raises(QuadratureError, match="did not converge"):
            integrate_unit(noisy, max_panels=32)


class TestFamilyRegistry:
    def test_aliases(self):
        assert get_family("exp") is EXPONENTIAL
        assert get_family("Weibull") is WEIBULL

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown family"):
            get_family("lognormal")

    def test_means(self):
        assert EXPONENTIAL.mean([3.0]) == 3.0
        assert WEIBULL.mean((2.0, 5.0)) == pytest.approx(2.0 * 0.9181687423997607, rel=1e-12)

    def test_cdf_sf(self):
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(
            WEIBULL.cdf((2.0, 5.0), x) + WEIBULL.sf((2.0, 5.0), x), 1.0, rtol=1e-14
        )
