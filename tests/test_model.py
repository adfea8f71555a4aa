import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from robustsurv import EXPONENTIAL, WEIBULL, get_family, lambda_model, mdpde_psi, sigma_model
from robustsurv.model import _digamma_trigamma

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


def reference_gamma_digamma_trigamma(c):
    """Gamma, digamma and trigamma at c, c + 1 and c + 2 for a float c > 0,
    as tuples: gamma up from c, digamma and trigamma down from c + 2."""
    g0 = math.gamma(c)
    p2, t2 = _digamma_trigamma(c + 2.0)
    p1, t1 = p2 - 1.0 / (c + 1.0), t2 + (c + 1.0) ** -2
    return (g0, g0 * c, g0 * c * (c + 1.0)), (p1 - 1.0 / c, p1, p2), (t1 + c ** -2, t1, t2)


def reference_weibull_integrals(theta, alpha):
    """The Weibull closed forms written over lists of the three shifts m = 0,
    1, 2: the form that Weibull._integrals writes out in straight-line code,
    with the same float operations in the same order."""
    sigma, b = theta
    beta = 1.0 + alpha
    kappa = alpha * (b - 1.0) / b
    if kappa <= -1.0:
        raise ValueError(f"f^(1+alpha) is not integrable for shape={b}, alpha={alpha}")
    c = kappa + 1.0
    gammas, digammas, trigammas = reference_gamma_digamma_trigamma(c)
    log_beta = math.log(beta)
    i0 = [g * beta ** -(c + m) for m, g in enumerate(gammas)]
    d = [p - log_beta for p in digammas]
    i1 = [g * dm for g, dm in zip(i0, d)]
    pref = (b / sigma) ** alpha
    xi = pref * i0[0]
    jvec = (pref * (b / sigma) * (i0[1] - i0[0]), pref / b * (i0[0] + i1[0] - i1[1]))
    i2 = [g * (dm * dm + t) for g, dm, t in zip(i0, d, trigammas)]
    k_ss = pref * (b / sigma) ** 2 * (i0[2] - 2.0 * i0[1] + i0[0])
    k_sb = pref / sigma * (i0[1] - i0[0] - (i1[2] - 2.0 * i1[1] + i1[0]))
    k_bb = pref / b**2 * (i0[0] + 2.0 * (i1[0] - i1[1]) + i2[0] - 2.0 * i2[1] + i2[2])
    h_ss = pref * (-(b / sigma**2) * (i0[1] - i0[0]) - (b / sigma) ** 2 * i0[1])
    h_sb = pref / sigma * (i0[1] - i0[0] + i1[1])
    h_bb = pref / b**2 * (-i0[0] - i2[1])
    d_sb = h_sb + beta * k_sb
    return xi, jvec, ((k_ss, k_sb), (k_sb, k_bb)), ((h_ss + beta * k_ss, d_sb), (d_sb, h_bb + beta * k_bb))


def outcome(func, *args):
    """repr of func's result, which spells every float exactly (signed zeros
    and NaN included), or the type and message of what it raised."""
    try:
        return repr(func(*args))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


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

    @pytest.mark.parametrize(
        "family,theta", [(WEIBULL, (1e-300, 2.0)), (EXPONENTIAL, (1e-300,))]
    )
    @pytest.mark.parametrize("method", ["logpdf", "score"])
    def test_overflow_is_a_value_error(self, family, theta, method):
        # x / scale overflows at scale 1e-300: a ValueError as mdpde_psi
        # raises, with no numpy warning (the suite turns warnings into errors)
        with pytest.raises(ValueError, match="not finite"):
            getattr(family, method)(theta, [1e10])


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


class TestSpecialFunctionsAgainstScipy:
    # the Weibull closed forms take gamma, digamma and trigamma without
    # scipy; scipy.special is the oracle here.  The points carry 20 binary
    # digits after the point, so x + 1 and x + 2 are exact and the oracle
    # sees the very arguments the helper means.
    X = np.round(np.logspace(-3, 3, 1201) * 2.0**20) / 2.0**20

    def test_digamma_and_trigamma(self):
        digamma, trigamma = np.array([_digamma_trigamma(float(x)) for x in self.X]).T
        np.testing.assert_allclose(digamma, special.digamma(self.X), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(trigamma, special.polygamma(1, self.X), rtol=1e-14, atol=0)

    def test_shifted_triples(self):
        # Gamma overflows beyond 171.6, so the triples stop below c + 2 = 171
        xs = self.X[self.X < 169.0]
        got = np.array([reference_gamma_digamma_trigamma(float(x)) for x in xs])  # (x, function, shift)
        shifted = xs[:, None] + np.arange(3.0)
        np.testing.assert_allclose(got[:, 0], special.gamma(shifted), rtol=1e-14, atol=0)
        np.testing.assert_allclose(got[:, 1], special.digamma(shifted), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(got[:, 2], special.polygamma(1, shifted), rtol=1e-14, atol=0)

    def test_gamma_overflow_is_an_arithmetic_error(self):
        # c = 1 + alpha (b - 1) / b is about 200 here, where Gamma overflows
        with pytest.raises(OverflowError):
            WEIBULL._integrals((1.0, 1e6), 199.0)


class TestStraightLineIntegrals:
    """Weibull._integrals against the list-based form it writes out
    (reference_weibull_integrals, whose special functions the class above
    checks against scipy): the same floats, bit for bit, and the same errors,
    out to the integrability boundary b = alpha / (1 + alpha)."""

    @settings(max_examples=400)
    @given(
        log_sigma=st.floats(-700.0, 700.0),
        alpha=st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 400.0), st.sampled_from([0.0, 0.5, 1.0])),
        log_shape=st.floats(-3.0, 8.0),
        boundary=st.one_of(st.none(), st.floats(-1e-3, 1e-3)),
    )
    @example(log_sigma=0.0, alpha=0.5, log_shape=0.0, boundary=0.0)
    @example(log_sigma=0.0, alpha=0.5, log_shape=0.0, boundary=-1e-16)
    @example(log_sigma=0.0, alpha=0.5, log_shape=0.0, boundary=1e-16)
    @example(log_sigma=-400.0, alpha=1.0, log_shape=0.0, boundary=1e-300)
    @example(log_sigma=0.0, alpha=199.0, log_shape=6.0, boundary=None)
    def test_same_bits_as_the_list_form(self, log_sigma, alpha, log_shape, boundary):
        # boundary, when drawn, puts the shape at alpha / (1 + alpha) times
        # (1 + boundary), on either side of where f^(1+alpha) stops being
        # integrable (c = kappa + 1 near 0, where c^-2 overflows)
        shape = math.exp(log_shape) if boundary is None else alpha / (1.0 + alpha) * (1.0 + boundary)
        theta = (math.exp(log_sigma), shape)
        if shape > 0.0:
            assert outcome(WEIBULL._integrals, theta, alpha) == outcome(
                reference_weibull_integrals, theta, alpha
            )


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
        # where numpy returned inf; every result built on them raises one
        # ValueError from the one checked call between them
        theta = (1e-300, 2.0)
        for call in (
            lambda: WEIBULL.weighted_integrals(theta, 0.5),
            lambda: lambda_model(WEIBULL, theta, 0.5),
            lambda: mdpde_psi(WEIBULL, theta, 0.5, 1.0),
            lambda: sigma_model(WEIBULL, theta, 0.5),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == "weighted integrals are not finite at theta=[1e-300, 2.0]"

    def test_an_infinite_kmat_raises(self):
        # kmat's entries overflow in a product while xi and jvec stay finite:
        # weighted_integrals raises rather than return an infinite kmat
        with pytest.raises(ValueError, match="^weighted integrals are not finite"):
            WEIBULL.weighted_integrals((1e-152, 1.0), 0.5)

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

