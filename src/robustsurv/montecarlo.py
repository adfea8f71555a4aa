"""Simulation harness: level/power tables, MSE sweeps, variance-ratio curves.

:func:`run_experiment` runs the experiment that ``ExperimentSpec.kind``
names (a level/power run is :func:`run_level_power`), and every report is
assembled in one place.  Every replication derives its random stream from
(design seed, replication index) alone, so reports are byte-identical no
matter how replications are scheduled across workers.  Replications whose
fit fails to converge are excluded from the affected rates but always
counted and reported; a run with more than 2% failures at some alpha is
flagged invalid rather than silently trusted.
"""

from __future__ import annotations

import math
import re
import time
from collections import Counter
from dataclasses import dataclass
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
    test_failures: dict[str, int]

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


def _level_power_rep(spec: ExperimentSpec, replication: int) -> tuple[list, Counter]:
    """p-value per (alpha, hypothesis) as lists of floats, NaN marking a
    failed fit or test, and the failed tests counted by reason."""
    _, fits = _fit_sweep(spec, replication)
    out = [[math.nan] * len(spec.hypotheses) for _ in fits]
    failures: Counter = Counter()
    for row, fr in zip(out, fits):
        if not fr.converged:
            continue
        for j, (_, restriction) in enumerate(spec.hypotheses):
            try:
                row[j] = wald_statistic(fr, restriction).p_value
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


def run_level_power(spec: ExperimentSpec) -> ExperimentReport:
    """Rejection proportion of every hypothesis at every alpha."""
    if spec.kind != "level_power":
        raise ValueError("spec.kind must be 'level_power'")
    start = time.perf_counter()
    per_rep = _collect(spec, _level_power_rep)
    test_failures: Counter = Counter()
    for _, failures in per_rep:
        test_failures.update(failures)
    # per cell, the finite p-values and the rejections among them, counted in
    # ints: count / k and math.sqrt give the bits of np.mean and np.sqrt
    cells = [[[0, 0] for _ in spec.hypotheses] for _ in spec.alpha_grid]
    converged = [0] * len(spec.alpha_grid)
    for out, _ in per_rep:
        for i, row in enumerate(out):
            converged[i] += any(map(math.isfinite, row))
            for cell, p in zip(cells[i], row):
                if math.isfinite(p):
                    cell[0] += 1
                    cell[1] += p < spec.level
    rows = []
    for alpha, row in zip(spec.alpha_grid, cells):
        for (name, _), (k, rejected) in zip(spec.hypotheses, row):
            rate = rejected / k if k else math.nan
            se = math.sqrt(rate * (1.0 - rate) / k) if k else math.nan
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
    columns = ("alpha", "hypothesis", "rejection_rate", "std_error", "valid", "failed")
    return _report(spec, start, columns, rows, converged, dict(test_failures))


def _estimation_report(spec: ExperimentSpec) -> ExperimentReport:
    """Mean estimate and empirical MSE against the design truth per alpha and
    parameter; a variance_ratio spec adds the mean variance estimate and its
    ratio to the MSE (the consistency ratio)."""
    start = time.perf_counter()
    with_ratio = spec.kind == "variance_ratio"
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
    columns = ["alpha", "parameter", "mean_estimate", "empirical_mse"]
    if with_ratio:
        columns += ["mean_variance_estimate", "ratio"]
    columns += ["valid", "failed"]
    converged = np.isfinite(stacked[:, :, 0]).sum(axis=0).tolist()
    return _report(spec, start, tuple(columns), rows, converged, {})


def _report(spec: ExperimentSpec, start: float, columns, rows, converged: list, test_failures: dict) -> ExperimentReport:
    """The report of a run begun at perf_counter ``start``, ``converged``
    counting per alpha the replications whose fit converged."""
    failed = {float(a): spec.replications - k for a, k in zip(spec.alpha_grid, converged)}
    return ExperimentReport(
        kind=spec.kind,
        seed=spec.design.seed,
        level=spec.level,
        n=spec.n,
        replications=spec.replications,
        columns=columns,
        rows=rows,
        failed_by_alpha=failed,
        invalid=any(k > FAILURE_FRACTION_LIMIT * spec.replications for k in failed.values()),
        wall_seconds=time.perf_counter() - start,
        design_label=_design_label(spec.design),
        test_failures=test_failures,
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """The report of the experiment that spec.kind names: level/power, mse
    or variance_ratio."""
    return run_level_power(spec) if spec.kind == "level_power" else _estimation_report(spec)


def _design_label(design: SyntheticDesign) -> str:
    label = design.lifetime.label()
    label += f", exp censoring mean {design.censoring_mean:g}"
    if design.contamination_fraction > 0 and design.contamination is not None:
        label += (
            f", {design.contamination_fraction:.0%} contamination from "
            f"{design.contamination.label()}"
        )
    return label
