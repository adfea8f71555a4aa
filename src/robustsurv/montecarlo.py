"""Simulation harness: level/power tables, MSE sweeps, variance-ratio curves.

Every replication derives its random stream from (design seed, replication
index) alone, so reports are byte-identical no matter how replications are
scheduled across workers.  Replications whose fit fails to converge are
excluded from the affected rates but always counted and reported; a run with
more than 2% failures at some alpha is flagged invalid rather than silently
trusted.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import SyntheticDesign, _csv_table, simulate
from .estimator import fit_grid
from .hypothesis import Restriction, chi2_quantile, wald_statistic
from .model import validate_alpha

__all__ = [
    "ExperimentSpec",
    "ExperimentReport",
    "run_level_power",
    "run_mse",
    "run_variance_ratio",
    "run_experiment",
]

FAILURE_FRACTION_LIMIT = 0.02

_KINDS = ("level_power", "mse", "variance_ratio")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full simulation experiment; picklable so workers can receive it.

    ``hypotheses`` (level/power runs only) are (name, restriction) pairs; use
    the linear restriction classes when running with workers > 1, since
    closure-based restrictions do not cross process boundaries.
    """

    design: SyntheticDesign
    n: int
    replications: int
    alpha_grid: tuple[float, ...]
    hypotheses: tuple[tuple[str, Restriction], ...] = ()
    level: float = 0.05
    kind: str = "level_power"
    workers: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.replications < 1 or self.n < 1:
            raise ValueError("n and replications must be at least 1")
        chi2_quantile(1, self.level)  # the one check of a level: it lies in (0, 1)
        grid = tuple(validate_alpha(a) for a in self.alpha_grid)
        if not grid or any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("alpha_grid must be nonempty and ascending")
        object.__setattr__(self, "alpha_grid", grid)
        if self.kind == "level_power" and not self.hypotheses:
            raise ValueError("level/power experiments need at least one hypothesis")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class ExperimentReport:
    """Aggregated experiment outcome.

    ``rows`` is one dict per (alpha x hypothesis) or (alpha x parameter)
    cell; ``wall_seconds`` is informational and deliberately excluded from
    the CSV serialization so identical (spec, seed) runs produce identical
    bytes regardless of timing or worker count.  ``test_failures`` counts,
    by reason, the Wald tests that raised on a converged fit (their p-values
    count as failed in the rows); it is not part of the CSV either.
    """

    kind: str
    seed: int
    level: float
    n: int
    replications: int
    columns: tuple[str, ...]
    rows: list[dict]
    failed_by_alpha: dict[float, int]
    invalid: bool
    wall_seconds: float
    design_label: str
    test_failures: dict[str, int] = field(default_factory=dict)

    def to_csv_string(self) -> str:
        return _csv_table(self.columns, ([row[c] for c in self.columns] for row in self.rows))

    def write_csv(self, path) -> None:
        _csv_table(self.columns, ([row[c] for c in self.columns] for row in self.rows), path)

    def summary(self) -> str:
        lines = [
            f"{self.kind} experiment: {self.design_label}, n={self.n}, "
            f"{self.replications} replications, seed={self.seed}, level={self.level:g}",
            f"failed fits by alpha: "
            + (", ".join(f"{a:g}: {k}" for a, k in sorted(self.failed_by_alpha.items())) or "none"),
        ]
        if self.test_failures:
            lines.append(
                "failed tests by reason: "
                + ", ".join(f"{r}: {k}" for r, k in sorted(self.test_failures.items()))
            )
        if self.invalid:
            lines.append(
                "WARNING: more than "
                f"{FAILURE_FRACTION_LIMIT:.0%} of replications failed at some alpha; "
                "report flagged invalid"
            )
        lines.append(f"wall time: {self.wall_seconds:.1f}s")
        header = "  ".join(f"{c:>16s}" for c in self.columns)
        lines.append(header)
        for row in self.rows:
            lines.append("  ".join(f"{_format_cell(row[c]):>16s}" for c in self.columns))
        return "\n".join(lines)


def _format_cell(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _fit_sweep(spec: ExperimentSpec, replication: int):
    sample = simulate(spec.design, spec.n, replication=replication)
    family, _ = spec.design.lifetime.resolve()
    return sample, fit_grid(sample, family, spec.alpha_grid)


def _failure_reason(exc: Exception) -> str:
    """Exception type and message, without a trailing parenthesised detail
    such as a condition number, so that like failures share one reason."""
    return re.sub(r"\s*\(.*\)$", "", f"{type(exc).__name__}: {exc}")


def _level_power_rep(spec: ExperimentSpec, replication: int) -> tuple[np.ndarray, Counter]:
    """p-value per (alpha, hypothesis), NaN marking a failed fit or test, and
    the failed tests counted by reason."""
    _, fits = _fit_sweep(spec, replication)
    out = np.full((len(spec.alpha_grid), len(spec.hypotheses)), np.nan)
    failures: Counter = Counter()
    for i, fr in enumerate(fits):
        if not fr.converged:
            continue
        for j, (_, restriction) in enumerate(spec.hypotheses):
            try:
                out[i, j] = wald_statistic(fr, restriction).p_value
            except (np.linalg.LinAlgError, ValueError) as exc:
                failures[_failure_reason(exc)] += 1
    return out, failures


def _estimate_rep(spec: ExperimentSpec, replication: int) -> np.ndarray:
    """Stacked (theta_hat, diag(sigma_hat)/n) per alpha; NaN rows on failure."""
    _, fits = _fit_sweep(spec, replication)
    family, _ = spec.design.lifetime.resolve()
    p = family.dim
    out = np.full((len(spec.alpha_grid), 2 * p), np.nan)
    for i, fr in enumerate(fits):
        if fr.converged:
            out[i, :p] = fr.theta_hat
            out[i, p:] = np.diag(fr.sigma_hat) / fr.n
    return out


def _collect(spec: ExperimentSpec, worker) -> list:
    """worker(spec, rep) for every replication, in replication order."""
    task = partial(worker, spec)
    if spec.workers == 1:
        return [task(rep) for rep in range(spec.replications)]
    from concurrent.futures import ProcessPoolExecutor  # here: one worker does not pay its import
    chunk = max(1, spec.replications // (spec.workers * 8))
    with ProcessPoolExecutor(max_workers=spec.workers) as pool:
        return list(pool.map(task, range(spec.replications), chunksize=chunk))


def _failures(per_rep_valid: np.ndarray, spec: ExperimentSpec) -> tuple[dict, bool]:
    failed = {
        float(a): int(spec.replications - per_rep_valid[:, i].sum())
        for i, a in enumerate(spec.alpha_grid)
    }
    invalid = any(
        k > FAILURE_FRACTION_LIMIT * spec.replications for k in failed.values()
    )
    return failed, invalid


def run_level_power(spec: ExperimentSpec) -> ExperimentReport:
    """Rejection proportion of every hypothesis at every alpha."""
    if spec.kind != "level_power":
        raise ValueError("spec.kind must be 'level_power'")
    start = time.perf_counter()
    per_rep = _collect(spec, _level_power_rep)
    pvals = np.stack([out for out, _ in per_rep])  # (reps, n_alpha, n_hyp)
    test_failures: Counter = Counter()
    for _, failures in per_rep:
        test_failures.update(failures)
    rows = []
    for i, alpha in enumerate(spec.alpha_grid):
        for j, (name, _) in enumerate(spec.hypotheses):
            col = pvals[:, i, j]
            valid = np.isfinite(col)
            k = int(valid.sum())
            rate = float(np.mean(col[valid] < spec.level)) if k else float("nan")
            se = float(np.sqrt(rate * (1.0 - rate) / k)) if k else float("nan")
            rows.append(
                {
                    "alpha": float(alpha),
                    "hypothesis": name,
                    "rejection_rate": rate,
                    "std_error": se,
                    "valid": k,
                    "failed": spec.replications - k,
                }
            )
    conv = np.isfinite(pvals).any(axis=2)
    failed, invalid = _failures(conv, spec)
    return ExperimentReport(
        kind=spec.kind,
        seed=spec.design.seed,
        level=spec.level,
        n=spec.n,
        replications=spec.replications,
        columns=("alpha", "hypothesis", "rejection_rate", "std_error", "valid", "failed"),
        rows=rows,
        failed_by_alpha=failed,
        invalid=invalid,
        wall_seconds=time.perf_counter() - start,
        design_label=_design_label(spec.design),
        test_failures=dict(test_failures),
    )


def _estimation_report(spec: ExperimentSpec, with_ratio: bool) -> ExperimentReport:
    start = time.perf_counter()
    stacked = np.stack(_collect(spec, _estimate_rep))  # (reps, n_alpha, 2p)
    family, theta0 = spec.design.lifetime.resolve()
    p = family.dim
    rows = []
    for i, alpha in enumerate(spec.alpha_grid):
        block = stacked[:, i, :]
        valid = np.isfinite(block[:, 0])
        k = int(valid.sum())
        for j, name in enumerate(family.param_names):
            est = block[valid, j]
            mse = float(np.mean((est - theta0[j]) ** 2)) if k else float("nan")
            row = {
                "alpha": float(alpha),
                "parameter": name,
                "mean_estimate": float(est.mean()) if k else float("nan"),
                "empirical_mse": mse,
                "valid": k,
                "failed": spec.replications - k,
            }
            if with_ratio:
                mean_var = float(block[valid, p + j].mean()) if k else float("nan")
                row["mean_variance_estimate"] = mean_var
                row["ratio"] = mean_var / mse if k and mse > 0 else float("nan")
            rows.append(row)
    failed, invalid = _failures(np.isfinite(stacked[:, :, 0]), spec)
    columns = ["alpha", "parameter", "mean_estimate", "empirical_mse"]
    if with_ratio:
        columns += ["mean_variance_estimate", "ratio"]
    columns += ["valid", "failed"]
    return ExperimentReport(
        kind=spec.kind,
        seed=spec.design.seed,
        level=spec.level,
        n=spec.n,
        replications=spec.replications,
        columns=tuple(columns),
        rows=rows,
        failed_by_alpha=failed,
        invalid=invalid,
        wall_seconds=time.perf_counter() - start,
        design_label=_design_label(spec.design),
    )


def run_mse(spec: ExperimentSpec) -> ExperimentReport:
    """Empirical MSE of the estimates against the design truth, per alpha."""
    if spec.kind != "mse":
        raise ValueError("spec.kind must be 'mse'")
    return _estimation_report(spec, with_ratio=False)


def run_variance_ratio(spec: ExperimentSpec) -> ExperimentReport:
    """Mean variance estimate over empirical MSE (the consistency ratio), per
    alpha and parameter."""
    if spec.kind != "variance_ratio":
        raise ValueError("spec.kind must be 'variance_ratio'")
    return _estimation_report(spec, with_ratio=True)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    return {
        "level_power": run_level_power,
        "mse": run_mse,
        "variance_ratio": run_variance_ratio,
    }[spec.kind](spec)


def _design_label(design: SyntheticDesign) -> str:
    label = design.lifetime.label()
    label += f", exp censoring mean {design.censoring_mean:g}"
    if design.contamination_fraction > 0 and design.contamination is not None:
        label += (
            f", {design.contamination_fraction:.0%} contamination from "
            f"{design.contamination.label()}"
        )
    return label
