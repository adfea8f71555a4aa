"""List-form reference of the small float algebra behind the sandwich and
the Wald forms.

The package writes the p x p congruence of the sandwich, the M^T Sigma M of
the Wald forms and their Cramer solve as straight-line float code.  The
forms below are the earlier general ones, matrices as lists of rows summed
with sum(), kept here so that the tests can require the straight-line code
to give the same bits.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from robustsurv.varest import _small_cond, _small_inverse


def reference_congruence(a, b) -> list:
    """a b a^T as (a b) a^T, every entry a sum() over list rows."""
    left = [[sum(map(operator.mul, row, col)) for col in zip(*b)] for row in a]
    return [[sum(map(operator.mul, row, other)) for other in a] for row in left]


def reference_sigma(lam, c) -> tuple[list, float]:
    """Lambda^-1 C Lambda^-T symmetrized entry by entry, and cond(Lambda)."""
    inverse, cond = _small_inverse(lam)
    sigma = reference_congruence(inverse, c)
    p = range(len(inverse))
    return [[0.5 * (sigma[i][j] + sigma[j][i]) for j in p] for i in p], cond


def reference_solve(mat, rhs):
    """x with mat x = rhs by Cramer's rule; None where mat is not finite or
    singular or x is not finite."""
    if len(rhs) == 1:
        det, x = mat[0][0], (rhs[0],)
    else:
        (a, b), (c, d) = mat
        det, x = a * d - b * c, (d * rhs[0] - b * rhs[1], a * rhs[1] - c * rhs[0])
    if not (all(math.isfinite(v) for row in mat for v in row) and det != 0.0):
        return None
    x = tuple([v / det for v in x])
    return x if all(map(math.isfinite, x)) else None


def reference_wald_form(m, jac, sigma) -> tuple[float, list, float]:
    """(m^T (M^T Sigma M)^-1 m, M^T Sigma M, its condition number), m, M and
    Sigma as lists; LinAlgError above cond 1e12, NaN where the solve fails."""
    inner = reference_congruence(list(zip(*jac)), sigma)
    cond = _small_cond(inner)
    if not cond <= 1e12:
        raise np.linalg.LinAlgError(f"M^T Sigma M is numerically singular (cond={cond:.3g})")
    solved = reference_solve(inner, m)
    return (sum(map(operator.mul, m, solved)) if solved is not None else math.nan), inner, cond
