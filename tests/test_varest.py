import numpy as np
import pytest
from hypothesis import given
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
    fit,
    gamma_tables,
    lambda_model,
    mdpde_psi,
    sigma_hat,
    simulate,
    u_hat,
)
from robustsurv.varest import _small_cond, _small_solve

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
        with pytest.raises(ValueError, match="non-finite"), np.errstate(divide="ignore"):
            u_hat(small_sample, lambda x, th: np.log(x - 1.0)[:, None], np.array([1.0]))


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


class TestSmallMatrixHelper:
    """varest's Cramer solve and condition number against numpy.  Both are
    backward stable, so on a matrix rounded to doubles they agree to about
    eps * cond relative and no closer: the bound is 1e-9 up to cond ~5e5 and
    8 eps cond beyond."""

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
        got = np.array(_small_solve(rows, rhs))
        np.testing.assert_allclose(got, expected, rtol=0, atol=rtol * np.abs(expected).max())

    @given(st.floats(1e-300, 1e300), st.sampled_from([1.0, -1.0]), st.floats(-1e3, 1e3))
    def test_one_by_one_matches_numpy(self, value, sign, rhs):
        rows = [[sign * value]]
        assert _small_cond(rows) == np.linalg.cond(np.array(rows)) == 1.0
        assert _small_solve(rows, (rhs,))[0] == np.linalg.solve(np.array(rows), [rhs])[0]

    @pytest.mark.parametrize(
        "rows",
        [[[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]], [[np.nan]],
         [[1.0, np.inf], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]],
    )
    def test_singular_or_nonfinite(self, rows):
        assert _small_cond(rows) == np.inf
        assert _small_solve(rows, (1.0,) * len(rows)) is None

    @pytest.mark.parametrize("kappa", [1e11, 1e13])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_same_side_of_the_singularity_bound(self, kappa, symmetric):
        mat = conditioned(kappa, (0.3, 1.1), symmetric, 3.0, 1.0)
        assert (_small_cond(mat.tolist()) > 1e12) == (np.linalg.cond(mat) > 1e12)


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
