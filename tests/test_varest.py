import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from robustsurv import (
    CensoredSample,
    EXPONENTIAL,
    FamilySpec,
    FitConfig,
    SingularSensitivityError,
    SyntheticDesign,
    WEIBULL,
    c_hat,
    covariance_estimate,
    fit,
    gamma_tables,
    lambda_model,
    mdpde_psi,
    sigma_hat,
    simulate,
    u_hat,
)
from robustsurv.estimator import _newton, _Point
from robustsurv.hypothesis import _wald_form
from robustsurv.varest import _small_cond, _small_congruence, _small_inverse
from small_algebra_oracle import reference_congruence, reference_sigma

E = np.e


def psi_for(family, alpha):
    return lambda x, theta: mdpde_psi(family, theta, alpha, x)


class TestGammaTables:
    def test_no_censoring_collapses(self):
        sample = CensoredSample.from_pairs([(1, 1), (2, 1), (5, 1)])
        tables = gamma_tables(sample)
        np.testing.assert_array_equal(tables.gamma0, 1.0)
        np.testing.assert_array_equal(tables.gamma, 0.0)
        np.testing.assert_array_equal(tables.gamma2(np.ones(3)), 0.0)

    def test_hand_example(self, small_sample):
        tables = gamma_tables(small_sample)
        np.testing.assert_allclose(tables.gamma0, [1.0, 1.0, E])
        np.testing.assert_allclose(tables.gamma, [0.0, 0.0, 3.0])
        gamma1 = tables.gamma1(np.ones(3))
        assert gamma1[1] == pytest.approx(E / 2)
        # by the same accumulation: gamma1 at the first point averages both
        # later events... only index 3 is an event after index 1
        assert gamma1[0] == pytest.approx(E / 3)
        assert gamma1[2] == 0.0
        gamma2 = tables.gamma2(np.ones(3))
        np.testing.assert_allclose(gamma2, [0.0, 0.0, E])

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 50.0), st.integers(0, 1)),
            min_size=1,
            max_size=60,
        )
    )
    def test_monotone_invariants(self, pairs):
        tables = gamma_tables(CensoredSample.from_pairs(pairs))
        assert np.all(tables.gamma0 >= 1.0)
        assert np.all(np.diff(tables.gamma0) >= 0)
        assert np.all(tables.gamma >= 0.0)
        assert np.all(np.diff(tables.gamma) >= 0)

    def test_one_read_only_table_per_sample(self, small_sample):
        tables = gamma_tables(small_sample)
        assert gamma_tables(small_sample) is tables
        for arr in (tables.z, tables.delta, tables.gamma0, tables.gamma):
            assert not arr.flags.writeable

    def test_phi_callable_or_array(self, small_sample):
        tables = gamma_tables(small_sample)
        via_callable = tables.gamma1(lambda z: np.ones_like(z))
        via_array = tables.gamma1(np.ones(3))
        np.testing.assert_array_equal(via_callable, via_array)


class TestUHat:
    def test_no_censoring_is_psi(self):
        rng = np.random.default_rng(3)
        z = rng.exponential(1.0, 50)
        sample = CensoredSample(z, np.ones(50, dtype=np.int8))
        values = u_hat(sample, psi_for(EXPONENTIAL, 0.4), np.array([1.0]))
        expected = mdpde_psi(EXPONENTIAL, [1.0], 0.4, sample.z)
        np.testing.assert_allclose(values, expected, rtol=1e-14)

    def test_hand_chain(self, small_sample):
        values = u_hat(small_sample, lambda x, th: np.ones((x.size, 1)), np.array([1.0]))
        # U_1 = phi*gamma0*delta - gamma2 = 1 - 0;  U_2 (censored) = gamma1 - gamma2
        # = e/2 - 0; U_3 = 1*e*1 - e = 0
        np.testing.assert_allclose(values[:, 0], [1.0, E / 2, 0.0])

    def test_mean_zero_tendency_on_large_sample(self):
        design = SyntheticDesign(lifetime=FamilySpec("exp", (1.0,)), censoring_mean=9.0, seed=12)
        sample = simulate(design, 10_000)
        values = u_hat(sample, psi_for(EXPONENTIAL, 0.3), np.array([1.0]))[:, 0]
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean()) < 3 * se

    def test_columns_match_single_column_passes_bitwise(self, veteran):
        # the (n, p) pass accumulates down axis 0 in the same order as a
        # pass over each column alone
        sample = veteran["B"]
        psi = psi_for(WEIBULL, 0.5)
        theta = np.array([95.0, 0.92])
        both = u_hat(sample, psi, theta)
        for col in range(2):
            alone = u_hat(sample, lambda x, th: psi(x, th)[:, col], theta)
            np.testing.assert_array_equal(both[:, col], alone[:, 0])

    def test_nonfinite_psi_raises(self, small_sample):
        # in every public entry; only fit's own call skips the check
        theta, lam = np.array([1.0]), np.eye(1)
        for entry in (u_hat, c_hat, lambda *args: covariance_estimate(*args, lam)):
            with pytest.raises(ValueError, match="non-finite"), np.errstate(divide="ignore"):
                entry(small_sample, lambda x, th: np.log(x - 1.0)[:, None], theta)


class TestCHat:
    def test_constant_scalar_case(self):
        sample = CensoredSample.from_pairs([(1, 1), (2, 1), (3, 1)])
        got = c_hat(sample, lambda x, th: np.full((x.size, 1), 2.0), np.array([1.0]))
        assert got[0, 0] == pytest.approx(4.0)

    def test_symmetric_psd_fuzz(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = rng.integers(2, 40)
            z = rng.exponential(1.0, n)
            delta = (rng.random(n) < 0.8).astype(np.int8)
            sample = CensoredSample(z, delta)
            got = c_hat(sample, psi_for(EXPONENTIAL, 0.5), np.array([1.0]))
            np.testing.assert_allclose(got, got.T, atol=1e-14)
            np.linalg.cholesky(got + 1e-12 * np.eye(got.shape[0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.exponential(1.0, 60)
        delta = (rng.random(60) < 0.8).astype(np.int8)
        sample = CensoredSample(z, delta)
        order = rng.permutation(60)
        shuffled = CensoredSample(z[order], delta[order])
        a = c_hat(sample, psi_for(EXPONENTIAL, 0.3), np.array([1.1]))
        b = c_hat(shuffled, psi_for(EXPONENTIAL, 0.3), np.array([1.1]))
        np.testing.assert_array_equal(a, b)


def direct_plug_in(z, delta, phi):
    """O(n^2) double sums written from the varest docstrings, 1-based as printed.

    The observations are put in canonical order (ascending time, events before
    censorings at ties) by this function's own sort key, so the tie rule is
    checked rather than inherited from CensoredSample.  Returns (gamma0, gamma,
    gamma1, gamma2, U_hat, C_hat), the phi-weighted ones with one column per
    psi component.
    """
    order = sorted(range(z.size), key=lambda k: (z[k], -delta[k]))
    d = delta[order].astype(float)
    phi = phi[order]
    n, p = phi.shape
    gamma0, gamma = np.empty(n), np.empty(n)
    for i in range(1, n + 1):
        gamma0[i - 1] = np.exp(sum((1 - d[j - 1]) / (n - j) for j in range(1, i)))
        gamma[i - 1] = sum(n * (1 - d[j - 1]) / (n - j) ** 2 for j in range(1, i))
    gamma1, gamma2 = np.zeros((n, p)), np.zeros((n, p))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            event_term = d[j - 1] * phi[j - 1] * gamma0[j - 1]
            if j > i:
                gamma1[i - 1] += event_term / (n - i + 1)
            gamma2[i - 1] += event_term * gamma[min(i, j) - 1] / n
    u = phi * (gamma0 * d)[:, None] + gamma1 * (1 - d)[:, None] - gamma2
    c = sum(np.outer(row, row) for row in u) / n
    return gamma0, gamma, gamma1, gamma2, u, c


class TestDirectDefinition:
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("arm", ["A", "B"])
    def test_tied_veteran_arms(self, veteran, arm, alpha):
        sample = veteran[arm]
        # censorings inside tie groups with events (A at 100 d, B at 87 d and
        # 231 d), which continuous simulated data never produce
        assert any(
            sample.delta[sample.z == t].any() for t in sample.z[sample.delta == 0]
        )
        psi = psi_for(WEIBULL, alpha)
        theta = fit(sample, WEIBULL, FitConfig(alpha=alpha)).theta_hat
        shuffle = np.random.default_rng(0).permutation(sample.n)
        z, delta = sample.z[shuffle], sample.delta[shuffle]
        expected = direct_plug_in(z, delta, psi(z, theta))

        tables = gamma_tables(sample)
        phi = psi(sample.z, theta)
        got = (
            tables.gamma0,
            tables.gamma,
            np.column_stack([tables.gamma1(col) for col in phi.T]),
            np.column_stack([tables.gamma2(col) for col in phi.T]),
            u_hat(sample, psi, theta),
            c_hat(sample, psi, theta),
        )
        for name, value, reference in zip(
            ("gamma0", "gamma", "gamma1", "gamma2", "u_hat", "c_hat"), got, expected
        ):
            np.testing.assert_allclose(value, reference, rtol=1e-10, err_msg=name)


class TestSigmaHat:
    def test_identity_sandwich(self):
        c = np.array([[2.0, 0.3], [0.3, 1.0]])
        sigma, cond = sigma_hat(np.eye(2), c)
        np.testing.assert_array_equal(sigma, c)
        assert cond == pytest.approx(1.0)

    def test_scalar_case(self):
        sigma, _ = sigma_hat(np.array([[4.0]]), np.array([[8.0]]))
        assert sigma[0, 0] == pytest.approx(0.5)

    def test_singular_raises(self):
        with pytest.raises(SingularSensitivityError):
            sigma_hat(np.zeros((2, 2)), np.eye(2))

    def test_no_censoring_reduces_to_classical_sandwich(self):
        rng = np.random.default_rng(8)
        z = rng.exponential(2.0, 200)
        sample = CensoredSample(z, np.ones(200, dtype=np.int8))
        result = fit(sample, EXPONENTIAL, FitConfig(alpha=0.4))
        psi_matrix = mdpde_psi(EXPONENTIAL, result.theta_hat, 0.4, sample.z)
        classical_c = psi_matrix.T @ psi_matrix / sample.n
        lam = lambda_model(EXPONENTIAL, result.theta_hat, 0.4)
        expected = np.linalg.inv(lam) @ classical_c @ np.linalg.inv(lam)
        np.testing.assert_allclose(result.sigma_hat, expected, rtol=1e-12)
        np.testing.assert_allclose(result.c_hat, classical_c, rtol=1e-12)


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def conditioned(kappa, angles, symmetric, scale, sign):
    """2 x 2 matrix with singular values scale and scale / kappa (the smaller
    one signed by ``sign``), symmetric when both rotations are the same."""
    left = rotation(angles[0])
    right = left if symmetric else rotation(angles[1])
    return scale * left @ np.diag([1.0, sign / kappa]) @ right.T


def cramer_form(rows, rhs) -> float:
    """rhs^T rows^-1 rhs by the Wald form's Cramer solve: M = I leaves
    M^T rows M = rows."""
    return _wald_form(list(rhs), np.eye(len(rows)).tolist(), rows)[0]


class NewtonProbe:
    """A stand-in equation with residual g and Jacobian jac at the first point
    asked for and a root at every later one; it records the points."""

    alpha = 0.0

    def __init__(self, g, jac):
        self.g, self.jac, self.tried = g, jac, []

    def point(self, eta):
        self.tried.append(eta)
        g = self.g if len(self.tried) == 1 else [0.0] * len(eta)
        return _Point(eta, 0.0, g, self.jac, math.hypot(*g), 1.0)


class TestSmallMatrixHelper:
    """The Wald form's Cramer solve and varest's condition number and
    inverse against numpy.  Both are backward stable, so on a matrix rounded
    to doubles they agree to about eps * cond relative and no closer: the
    bound is 1e-9 up to cond ~5e5 and 8 eps cond beyond."""

    @given(
        st.floats(0.0, 10.0),
        st.tuples(st.floats(0.0, 6.3), st.floats(0.0, 6.3)),
        st.booleans(),
        st.integers(-40, 40),
        st.sampled_from([1.0, -1.0]),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda b: max(map(abs, b)) > 1e-3),
    )
    def test_two_by_two_matches_numpy(self, log_kappa, angles, symmetric, exponent, sign, rhs):
        mat = conditioned(10.0**log_kappa, angles, symmetric, 2.0**exponent, sign)
        rows = mat.tolist()
        expected_cond = np.linalg.cond(mat)
        rtol = max(1e-9, 8 * np.finfo(float).eps * expected_cond)
        assert _small_cond(rows) == pytest.approx(expected_cond, rel=rtol)
        expected = np.linalg.solve(mat, rhs)
        atol = rtol * np.abs(expected).max() * np.abs(rhs).sum()
        assert cramer_form(rows, rhs) == pytest.approx(float(np.dot(rhs, expected)), rel=0, abs=atol)
        inverse, cond = _small_inverse(rows)
        expected = np.linalg.inv(mat)
        assert cond == _small_cond(rows)
        np.testing.assert_allclose(inverse, expected, rtol=0, atol=rtol * np.abs(expected).max())
        # rhs = e_i gives (mat^-1)_ii: the solve's components one at a time
        diagonal = [cramer_form(rows, e) for e in ((1.0, 0.0), (0.0, 1.0))]
        np.testing.assert_allclose(diagonal, np.diag(expected), rtol=0, atol=rtol * np.abs(expected).max())

    @given(
        st.floats(0.0, 10.0),
        st.tuples(st.floats(0.0, 6.3), st.floats(0.0, 6.3)),
        st.booleans(),
        st.integers(-40, 40),
        st.sampled_from([1.0, -1.0]),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda b: max(map(abs, b)) > 1e-3),
    )
    def test_newton_step_matches_numpy(self, log_kappa, angles, symmetric, exponent, sign, step):
        # the solver's Newton step writes out the same Cramer solve: its
        # first trial point from eta = 0 is J^-1 (-g), component by component
        mat = conditioned(10.0**log_kappa, angles, symmetric, 2.0**exponent, sign)
        rtol = max(1e-9, 8 * np.finfo(float).eps * np.linalg.cond(mat))
        g = (-(mat @ np.array(step))).tolist()
        probe = NewtonProbe(g, mat.tolist())
        _newton(probe, probe.point((0.0, 0.0)), 0.0, 1)
        expected = np.linalg.solve(mat, -np.array(g))
        np.testing.assert_allclose(probe.tried[1], expected, rtol=0, atol=rtol * np.abs(expected).max())

    @given(st.floats(1e-300, 1e300), st.sampled_from([1.0, -1.0]), st.floats(-1e3, 1e3))
    def test_one_by_one_matches_numpy(self, value, sign, rhs):
        rows = [[sign * value]]
        assert _small_cond(rows) == np.linalg.cond(np.array(rows)) == 1.0
        assert cramer_form(rows, (rhs,)) == rhs * np.linalg.solve(np.array(rows), [rhs])[0]

    @pytest.mark.parametrize(
        "rows",
        [[[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], [[np.nan]],
         [[1.0, np.inf], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]],
    )
    def test_singular_or_nonfinite(self, rows):
        assert _small_cond(rows) == np.inf
        with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
            cramer_form(rows, (1.0,) * len(rows))
        with pytest.raises(SingularSensitivityError):
            _small_inverse(rows)

    def test_overflowing_inverse_raises(self):
        # well conditioned, but 1 / 1e-310 is not a double
        assert _small_cond([[1e-310]]) == 1.0
        with pytest.raises(SingularSensitivityError):
            _small_inverse([[1e-310]])

    @pytest.mark.parametrize("kappa", [1e11, 1e13])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_same_side_of_the_singularity_bound(self, kappa, symmetric):
        mat = conditioned(kappa, (0.3, 1.1), symmetric, 3.0, 1.0)
        assert (_small_cond(mat.tolist()) > 1e12) == (np.linalg.cond(mat) > 1e12)


# entries over many scales, with exact zeros of both signs
entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_subnormal=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-150, 150)),
)


def square(p):
    return st.lists(st.lists(entries, min_size=p, max_size=p), min_size=p, max_size=p)


class TestStraightLineSandwich:
    """Sigma_hat and the p = 2 congruence, straight-line on floats, give the
    bits of the list form (small_algebra_oracle), signed zeros included."""

    @given(st.sampled_from([1, 2]).flatmap(lambda p: st.tuples(square(p), square(p))))
    def test_sigma_hat_bits(self, mats):
        lam, c = mats
        try:
            expected, expected_cond = reference_sigma(lam, c)
        except SingularSensitivityError:
            with pytest.raises(SingularSensitivityError):
                sigma_hat(np.array(lam), np.array(c))
            return
        sigma, cond = sigma_hat(np.array(lam), np.array(c))
        assert sigma.tobytes() == np.array(expected).tobytes()
        assert cond == expected_cond

    @given(st.integers(1, 2).flatmap(lambda r: st.tuples(
        st.lists(st.lists(entries, min_size=2, max_size=2), min_size=r, max_size=r), square(2))))
    # entries where both products of a sum are -0.0, which sum() makes 0.0
    @example(mats=([[-0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]))
    @example(mats=([[1.0, 2.0], [-0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]))
    def test_congruence_bits(self, mats):
        a, b = mats
        assert repr(_small_congruence(a, b)) == repr(reference_congruence(a, b))


class TestSandwichBounds:
    def test_only_up_to_two_by_two(self):
        with pytest.raises(ValueError, match="p <= 2"):
            sigma_hat(np.eye(3), np.eye(3))

    def test_bound_at_the_singularity_threshold(self):
        # cond 1e11 passes and reports numpy's condition number; 1e13 raises
        ok = conditioned(1e11, (0.3, 1.1), True, 1.0, 1.0)
        assert sigma_hat(ok, np.eye(2))[1] == pytest.approx(np.linalg.cond(ok), rel=1e-3)
        with pytest.raises(SingularSensitivityError):
            sigma_hat(conditioned(1e13, (0.3, 1.1), True, 1.0, 1.0), np.eye(2))
