"""One-sample Wald-type tests with power approximations.

A hypothesis is a restriction m(theta) = 0 with Jacobian M(theta) (p x r,
gradients of the components of m in columns).  Tests use only the
unrestricted estimate and its sandwich covariance: no restricted fit is ever
computed, because the quadratic form in m(theta_hat) already carries the
null.  The significance level is always called ``level``; ``alpha_dpd`` is
reserved for the divergence tuning parameter.

Every Wald form in the package, here and in ``twosample`` and
``influence``, forms M^T Sigma M and checks its condition number (at most
1e12) through :func:`_wald_inner`, on Python floats.  The chi-square tails
live here too: central ones by a recurrence (:func:`_chi2_tails`), and the
noncentral tail of the contiguous power as a Poisson mixture of central ones,
summed until the omitted Poisson mass is negligible against the sum so far
(:func:`_poisson_mixture`, which influence.kstar shares).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .estimator import FitResult
from .kmpl import RESIDUAL_MASS_FLAG
from .varest import _small_cond, _small_congruence

# the Poisson mixtures stop once the omitted Poisson mass is below this
# fraction of the sum so far (every omitted term is at most its weight), or
# after _MIXTURE_TERMS terms or the window's 20 sqrt(s/2), if more
_MIXTURE_RTOL = 1e-17
_MIXTURE_TERMS = 100_000

__all__ = [
    "Restriction",
    "LinearRestriction",
    "FunctionRestriction",
    "TestReport",
    "wald_statistic",
    "power_approx",
    "contiguous_power",
    "chi2_sf",
    "chi2_quantile",
    "noncentral_chi2_sf",
]


def _central_differences(func, x, step: float) -> np.ndarray:
    """Central differences of func at x, one row per coordinate of x, with
    step step * (1 + |x_j|); shared by the restriction checks and
    power_approx."""
    x = np.asarray(x, dtype=float)
    rows = []
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        rows.append((func(up) - func(down)) / (2.0 * h))
    return np.stack(rows, axis=0)


def _chi2_tails(df: int, q: float, first: int = 0):
    """Iterator of (P(chi2_{df+2k} > q), P(chi2_{df+2k+2} > q) - P(chi2_{df+2k}
    > q)) for k = first, first + 1, ... without end, for an integer df >= 1
    (checked here, at the call).  With x = q/2 the tails are Q(df/2 + k, x),
    taken up from Q(1/2, x) = erfc(sqrt x) or Q(1, x) = e^-x, or for first >
    0 from Q(df/2 + first, x) (:func:`_upper_gamma`), by Q(a + 1, x) = Q(a,
    x) + x^a e^-x / Gamma(a + 1): positive steps, formed in log space, so no
    digits cancel and e^-x may underflow."""
    if not (df >= 1 and df == int(df)):
        raise ValueError(f"df must be a positive integer, got {df!r}")
    x = 0.5 * q
    if not 0.0 < x < math.inf:  # q <= 0, inf or NaN: every tail is 1, 0 or NaN
        tail = 1.0 if x <= 0.0 else math.exp(-x)
        return itertools.repeat((tail, 0.0 * tail))
    return _tail_recurrence(int(df), x, first)


def _tail_recurrence(df: int, x: float, first: int):
    """The generator behind :func:`_chi2_tails`, for 0 < x < inf; for first
    > 0 (so a > 700) the steps take :func:`_log_poisson`'s form."""
    if first:
        a, tail, k = 0.5 * df + first, _upper_gamma(0.5 * df + first, x), 0
    else:  # k < 0: the steps up to Q(df/2, x)
        (a, tail), k = ((0.5, math.erfc(math.sqrt(x))) if df % 2 else (1.0, math.exp(-x))), -((df - 1) // 2)
    log_x = math.log(x)
    while True:
        step = math.exp(_log_poisson(a, x) if first else a * log_x - x - math.lgamma(a + 1.0))
        if k >= 0:
            yield tail, step
        tail += step
        a += 1.0
        k += 1


def _log_poisson(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a + 1)) for a >= 700 by Stirling's series (next
    term below 1e-17), with d = x - a, so no two large logs cancel."""
    d = x - a
    return a * math.log1p(d / a) - d - 0.5 * math.log(2.0 * math.pi * a) - (1.0 - 1.0 / (30.0 * a * a)) / (12.0 * a)


def _upper_gamma(a: float, x: float) -> float:
    """Regularized Q(a, x) for a >= 700 (Numerical Recipes, 3rd ed., 6.2):
    x^a e^-x / Gamma(a + 1) times 1 + x/(a + 1) + x^2/((a + 1)(a + 2)) + ...
    (P = 1 - Q) below x = a + 1, else times a/x + a(a - 1)/x^2 + ... (Q by
    the recurrence down from a), falling terms summed to 1e-17: O(sqrt(a))."""
    front, below = math.exp(_log_poisson(a, x)), x < a + 1.0
    term = total = 1.0 if below else a / x
    k = 1.0
    while term > 1e-17 * total:
        term *= x / (a + k) if below else (a - k) / x
        total += term
        k += 1.0
    return 1.0 - front * total if below else front * total


def chi2_sf(df: int, x: float) -> float:
    """Upper tail of chi-square with df degrees of freedom (a positive integer)."""
    return next(_chi2_tails(df, x))[0]


def chi2_quantile(df: int, level: float) -> float:
    """(1 - level) quantile of chi-square_df; the one check that 0 < level < 1.
    Closed forms for df 1 and 2, else bisection on chi2_sf to adjacent floats."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    if df == 1:
        from statistics import NormalDist  # here, as it brings decimal and fractions in
        return NormalDist().inv_cdf(0.5 * level) ** 2
    if df == 2:
        return -2.0 * math.log(level)
    lo, hi = 0.0, 2.0 * df
    while chi2_sf(df, hi) > level:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if chi2_sf(df, mid) > level else (lo, mid)
    return mid


def _poisson_mixture(s: float, terms) -> tuple[int, list, list]:
    """(v0, the weights w_v and terms t_v from v = v0) of the mixture sum_v
    w_v t_v of Poisson(s/2) weights and the terms in [0, 1] that
    ``terms(v0)`` yields, kept up to the first v after which the omitted
    Poisson mass, which bounds the omitted terms' sum, is below _MIXTURE_RTOL
    times the sum so far.  Once v + 2 > s/2 the weight ratios (s/2)/(k + 1)
    fall below r = (s/2)/(v + 2) for every k > v, so the omitted mass is at
    most w_{v+1} / (1 - r).  The weights run up from w_0 = e^(-s/2) by
    w_{v+1} = w_v (s/2)/(v + 1); from s/2 = 700 on, those up to the mode m =
    floor(s/2) come down from w_m (:func:`_log_poisson`) by w_{v-1} = w_v v
    / (s/2), and the sum stops before m + 9 sqrt(s/2).  v0 is m - 10
    sqrt(s/2) (a Poisson mass below 1e-22 lies below it) wherever that is at
    least 700, where the first term's :func:`_upper_gamma` and the Stirling
    steps hold, so no tail is taken up through the terms below v0; else v0
    is 0: O(sqrt(s)) work for every finite s >= 0; any other s raises
    ValueError."""
    if not 0.0 <= s < math.inf:
        raise ValueError(f"noncentrality must be finite and nonnegative, got {s!r}")
    half = 0.5 * s
    mode, reach = (int(half) if half >= 700.0 else 0), math.ceil(10.0 * math.sqrt(half))
    first = mode - reach if mode - reach >= 700 else 0
    head = [math.exp(_log_poisson(mode, half)) if mode else math.exp(-half)]
    for v in range(mode, first, -1):
        head.append(head[-1] * v / half)
    head.reverse()  # w_first .. w_mode
    weights, kept = [], []
    weight, total = head[0], 0.0
    for v, term in enumerate(itertools.islice(terms(first), max(_MIXTURE_TERMS, 2 * reach)), first):
        weights.append(weight)
        kept.append(term)
        total += weight * term
        weight = head[v + 1 - first] if v < mode else weight * half / (v + 1)
        ratio = half / (v + 2)
        # "not >" also stops on a NaN sum
        if ratio < 1.0 and not weight > _MIXTURE_RTOL * (1.0 - ratio) * total:
            break
    return first, weights, kept


def noncentral_chi2_sf(q: float, df: int, ncp: float) -> float:
    """P(chi2_df(ncp) > q) by the Poisson mixture of central chi-square
    tails, truncated once the omitted Poisson mass is below 1e-17 of the
    tail summed so far, so a small tail keeps its relative accuracy; clamped
    to [0, 1], which the sum's rounding may leave."""
    _, weights, tails = _poisson_mixture(ncp, lambda first: (tail for tail, _ in _chi2_tails(df, q, first)))
    return min(max(math.fsum(map(operator.mul, weights, tails)), 0.0), 1.0)


class Restriction:
    """Restriction m(theta) = 0 of rank r; subclasses supply m and M."""

    r: int
    description: str

    def m(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def validate_at(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Check the shapes of m and M, M against finite differences of m
        (1e-6) and its rank (singular values above 1e-10); returns (m, M)."""
        theta = np.asarray(theta, dtype=float)
        m = np.asarray(self.m(theta), dtype=float)
        if m.shape != (self.r,):
            raise ValueError(f"m(theta) must return an r={self.r} vector")
        jac = np.asarray(self.jacobian(theta), dtype=float)
        if jac.shape != (theta.size, self.r):
            raise ValueError(f"jacobian must be {theta.size} x {self.r}")
        if self._checked_rank(theta, jac) < self.r:
            raise ValueError("restriction jacobian is rank-deficient at theta")
        return m, jac

    def _checked_rank(self, theta: np.ndarray, jac: np.ndarray) -> int:
        """Rank of jac after checking it against finite differences of m."""
        fd = _central_differences(self.m, theta, 1e-6)
        if not np.allclose(jac, fd, atol=1e-6, rtol=1e-6):
            raise ValueError("restriction jacobian disagrees with finite differences")
        return int(np.linalg.matrix_rank(jac, tol=1e-10))


@dataclass(frozen=True, eq=False)
class LinearRestriction(Restriction):
    """m(theta) = A^T theta - target; covers simple and per-component nulls.

    The Jacobian is A itself, exactly, so validate_at skips the
    finite-difference check; A and target are read-only copies of the
    caller's arrays, which lets A's rank be taken once.
    """

    matrix: np.ndarray  # (p, r)
    target: np.ndarray  # (r,)
    description: str = ""

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        target = np.atleast_1d(np.array(self.target, dtype=float))
        matrix.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "target", target)

    @property
    def r(self) -> int:
        return int(self.matrix.shape[1])

    def m(self, theta):
        return self.matrix.T @ np.asarray(theta, dtype=float) - self.target

    def jacobian(self, theta):
        return self.matrix

    def _checked_rank(self, theta, jac):
        return self._rank

    @cached_property
    def _rank(self) -> int:
        return int(np.linalg.matrix_rank(self.matrix, tol=1e-10))

    @classmethod
    def simple(cls, theta0) -> "LinearRestriction":
        """H0: theta = theta0 (r = p, M = identity)."""
        theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
        label = ",".join(f"{v:g}" for v in theta0)
        return cls(np.eye(theta0.size), theta0, description=f"theta = ({label})")

    @classmethod
    def component(cls, index: int, value: float, dim: int, name: str | None = None) -> "LinearRestriction":
        """H0: theta[index] = value with the remaining coordinates free."""
        col = np.zeros((dim, 1))
        col[index, 0] = 1.0
        label = name or f"theta[{index}]"
        return cls(col, np.array([value]), description=f"{label} = {value:g}")


@dataclass(frozen=True, eq=False)
class FunctionRestriction(Restriction):
    """General restriction from callables; Jacobian defaults to finite
    differences of m."""

    r: int
    m_func: Callable[[np.ndarray], np.ndarray]
    jacobian_func: Callable[[np.ndarray], np.ndarray] | None = None
    description: str = ""

    def m(self, theta):
        return np.atleast_1d(np.asarray(self.m_func(theta), dtype=float))

    def jacobian(self, theta):
        if self.jacobian_func is None:
            return _central_differences(self.m, theta, 1e-6)
        return np.asarray(self.jacobian_func(theta), dtype=float)


@dataclass(frozen=True)
class TestReport:
    """Wald-type test outcome; p_value is the chi-square upper tail at the
    statistic with df degrees of freedom."""

    statistic: float
    df: int
    p_value: float
    alpha_dpd: float
    description: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "hypothesis": self.description,
            "alpha_dpd": self.alpha_dpd,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
        }
        out.update(self.diagnostics)
        return out

    def summary(self) -> str:
        lines = [
            f"H0: {self.description}",
            f"Wald statistic: {self.statistic:.6g}  (df {self.df})   p-value: {self.p_value:.4g}"
            f"   [alpha_dpd={self.alpha_dpd:g}]",
        ]
        if self.diagnostics:
            pairs = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in self.diagnostics.items())
            lines.append(f"diagnostics: {pairs}")
        return "\n".join(lines)


def _wald_inner(jac, sigma) -> tuple[list, float]:
    """(M^T Sigma M, its condition number) on Python floats, M and Sigma as
    lists (by rows).  The r x r matrix takes r <= 2; cond above 1e12 raises
    LinAlgError."""
    r = len(jac[0])
    if r > 2:
        raise ValueError(f"Wald forms take restrictions of rank at most 2, got r={r}")
    inner = _small_congruence(list(zip(*jac)), sigma)
    cond = _small_cond(inner)
    if not cond <= 1e12:
        raise np.linalg.LinAlgError(f"M^T Sigma M is numerically singular (cond={cond:.3g})")
    return inner, cond


def _wald_form(m, jac, sigma) -> tuple[float, list, float]:
    """(m^T (M^T Sigma M)^{-1} m, M^T Sigma M, its condition number) on Python
    floats, m, M and Sigma as lists (by rows), by Cramer's rule; NaN where the
    solve overflows.  :func:`_wald_inner` forms and checks the r x r matrix
    (cond <= 1e12: finite, nonzero determinant).  Shared by the one- and
    two-sample Wald tests and the power approximations."""
    inner, cond = _wald_inner(jac, sigma)
    if len(m) == 1:
        x = (m[0] / inner[0][0],)
    else:
        (a, b), (c, d) = inner
        det = a * d - b * c
        x = ((d * m[0] - b * m[1]) / det, (a * m[1] - c * m[0]) / det)
    return (sum(map(operator.mul, m, x)) if all(map(math.isfinite, x)) else math.nan), inner, cond


def wald_statistic(fit: FitResult, restriction: Restriction) -> TestReport:
    """n m(theta_hat)^T [M^T Sigma_hat M]^{-1} m(theta_hat) with p-value from
    chi-square_r; reduces exactly to n (theta_hat - theta0)^T Sigma_hat^{-1}
    (theta_hat - theta0) for the simple restriction.  The r x r algebra runs
    on floats (:func:`_wald_form`); cond above 1e12 raises LinAlgError."""
    if not fit.converged:
        raise ValueError("Wald test requires a converged fit")
    m, jac = (a.tolist() for a in restriction.validate_at(fit.theta_hat))
    form, _, inner_cond = _wald_form(m, jac, fit.sigma_hat.tolist())
    statistic = fit.n * form
    diagnostics = {
        "lambda_cond": fit.lambda_cond,
        "inner_cond": inner_cond,
        "residual_mass_flagged": fit.residual_mass > RESIDUAL_MASS_FLAG,
    }
    return TestReport(
        statistic=statistic,
        df=restriction.r,
        p_value=chi2_sf(restriction.r, statistic),
        alpha_dpd=fit.alpha,
        description=restriction.description or f"m(theta) = 0 (r={restriction.r})",
        diagnostics=diagnostics,
    )


def power_approx(
    theta_star,
    restriction: Restriction,
    sigma: np.ndarray,
    n: float,
    level: float = 0.05,
) -> float:
    """Normal approximation to the power at a fixed alternative theta_star:

        1 - Phi( sqrt(n)/sigma_star * (chi2_{r,level}/n - wbar(theta_star)) )

    with wbar the population quadratic form and sigma_star^2 its
    delta-method variance (gradient by central differences, sigma fixed);
    n is an effective size, n1 n2 / (n1 + n2) for two-sample tests.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    sigma = np.asarray(sigma, dtype=float)

    def w_bar(th):
        return _wald_form(restriction.m(th).tolist(), restriction.jacobian(th).tolist(), sigma.tolist())[0]

    wbar = w_bar(theta_star)
    if wbar <= 1e-14:
        raise ValueError("theta_star satisfies the null; the power approximation is undefined")
    grad = _central_differences(w_bar, theta_star, 1e-5)
    var_star = float(grad @ sigma @ grad)
    if var_star <= 0.0:
        raise ValueError("degenerate variance in the power approximation")
    quantile = chi2_quantile(restriction.r, level)
    z = np.sqrt(n) / np.sqrt(var_star) * (quantile / n - wbar)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def contiguous_power(
    d,
    restriction: Restriction,
    sigma: np.ndarray,
    theta0,
    level: float = 0.05,
) -> float:
    """Asymptotic power against theta0 + d/sqrt(n): noncentral chi-square_r
    upper tail with noncentrality d^T M (M^T Sigma M)^{-1} M^T d."""
    jac = restriction.jacobian(np.asarray(theta0, dtype=float))
    md = jac.T @ np.asarray(d, dtype=float)
    ncp = _wald_form(md.tolist(), jac.tolist(), np.asarray(sigma, dtype=float).tolist())[0]
    return noncentral_chi2_sf(chi2_quantile(restriction.r, level), restriction.r, ncp)
