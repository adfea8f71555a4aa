"""Censored samples: ingestion, canonical ordering, synthetic generation.

Everything downstream works on a :class:`CensoredSample`, which stores the
observed pairs (z, delta) sorted ascending in z with events (delta=1) placed
before censorings at tied times.  That tie rule is the standard product-limit
convention; the ordering fixes the order statistics and concomitants used by
the product-limit weights and all gamma-hat accumulations, so it is enforced
at construction and never revisited.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .model import FamilySpec

__all__ = [
    "CensoredObservation",
    "CensoredSample",
    "CsvFormatError",
    "SyntheticDesign",
    "ingest_csv",
    "ingest_csv_arms",
    "write_csv",
    "simulate",
    "replication_rng",
]


class CensoredObservation(NamedTuple):
    z: float
    delta: int


class CsvFormatError(ValueError):
    """Malformed input file; message carries row/column location."""


@dataclass(frozen=True, eq=False)
class CensoredSample:
    """Immutable canonically-ordered sample of (observed time, event flag).

    Equality and hashing are by identity, as for the tables memoised on a
    sample: a sample equals only itself, and can key a dict or join a set.
    """

    z: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        delta = np.asarray(self.delta, dtype=np.int8)
        if z.ndim != 1 or z.shape != delta.shape:
            raise ValueError("z and delta must be 1-D arrays of equal length")
        if z.size < 1:
            raise ValueError("a censored sample needs at least one observation")
        if not np.all(np.isfinite(z)) or np.any(z < 0.0):
            raise ValueError("observed times must be finite and nonnegative")
        if not np.all((delta == 0) | (delta == 1)):
            raise ValueError("event indicators must be 0 or 1")
        # canonical order: ascending z, events before censorings at ties
        order = np.lexsort((1 - delta, z))
        z = np.ascontiguousarray(z[order])
        delta = np.ascontiguousarray(delta[order])
        z.setflags(write=False)
        delta.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_derived", {})

    def _memo(self, key: str, build):
        """``build(self)``, built on first use: the sample is immutable, so a
        table derived from it alone is shared, read-only, by every caller
        (threads racing on the first call still all get the stored one)."""
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, build(self))

    @property
    def n(self) -> int:
        return int(self.z.size)

    @property
    def n_events(self) -> int:
        return int(self.delta.sum())

    @property
    def observations(self) -> tuple[CensoredObservation, ...]:
        return tuple(
            CensoredObservation(float(z), int(d)) for z, d in zip(self.z, self.delta)
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, int]]) -> "CensoredSample":
        pairs = list(pairs)
        return cls(
            np.array([p[0] for p in pairs], dtype=float),
            np.array([p[1] for p in pairs], dtype=np.int8),
        )

    def __repr__(self) -> str:
        return f"CensoredSample(n={self.n}, events={self.n_events})"


def _parse_rows(path, time_column: str, status_column: str, arm_column=None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CsvFormatError(f"{path}: empty file (header row required)")
        for col in filter(None, (time_column, status_column, arm_column)):
            if col not in reader.fieldnames:
                raise CsvFormatError(
                    f"{path}: missing column {col!r} (found {reader.fieldnames})"
                )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            raw_t = (row[time_column] or "").strip()
            raw_s = (row[status_column] or "").strip()
            try:
                t = float(raw_t)
            except ValueError:
                raise CsvFormatError(
                    f"{path}:{lineno}: column {time_column!r}: cannot parse {raw_t!r} as a time"
                ) from None
            if not np.isfinite(t) or t < 0.0:
                raise CsvFormatError(
                    f"{path}:{lineno}: column {time_column!r}: time must be a finite nonnegative number, got {raw_t!r}"
                )
            if raw_s not in {"0", "1"}:
                raise CsvFormatError(
                    f"{path}:{lineno}: column {status_column!r}: status must be 0 or 1, got {raw_s!r}"
                )
            arm = row[arm_column].strip() if arm_column else None
            rows.append((t, int(raw_s), arm))
        if not rows:
            raise CsvFormatError(f"{path}: no data rows")
        return rows


def ingest_csv(path, time_column: str = "time", status_column: str = "status") -> CensoredSample:
    """Read a (time, status) CSV into a canonically ordered sample.

    Header row required, UTF-8, comma delimited.  Every malformed cell is
    reported with its row and column.
    """
    rows = _parse_rows(path, time_column, status_column)
    return CensoredSample.from_pairs((t, s) for t, s, _ in rows)


def ingest_csv_arms(
    path,
    arm_column: str,
    time_column: str = "time",
    status_column: str = "status",
) -> dict[str, CensoredSample]:
    """Read a CSV with an arm column; returns one sample per arm label."""
    rows = _parse_rows(path, time_column, status_column, arm_column)
    by_arm: dict[str, list[tuple[float, int]]] = {}
    for t, s, arm in rows:
        by_arm.setdefault(arm, []).append((t, s))
    return {arm: CensoredSample.from_pairs(pairs) for arm, pairs in sorted(by_arm.items())}


def write_csv(sample: CensoredSample, path, time_column: str = "time", status_column: str = "status") -> None:
    """Serialize a sample so that ingest(write(s)) == s."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([time_column, status_column])
        for z, d in zip(sample.z, sample.delta):
            writer.writerow([f"{z:.17g}", int(d)])


@dataclass(frozen=True)
class SyntheticDesign:
    """Generator settings for simulated censored (optionally contaminated) data.

    Lifetimes are drawn from the contamination mixture
    (1 - eps) * lifetime + eps * contamination, then censored by an
    independent exponential time with the given mean; contaminated draws pass
    through the same censoring mechanism as clean ones.
    """

    lifetime: FamilySpec
    censoring_mean: float
    contamination_fraction: float = 0.0
    contamination: FamilySpec | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.censoring_mean > 0.0:
            raise ValueError("censoring_mean must be positive")
        if not 0.0 <= self.contamination_fraction < 1.0:
            raise ValueError("contamination_fraction must lie in [0, 1)")
        if self.contamination_fraction > 0.0 and self.contamination is None:
            raise ValueError("contaminated designs need a contamination family")
        self.lifetime.resolve()
        if self.contamination is not None:
            self.contamination.resolve()


def replication_rng(seed: int, replication: int | None = None) -> np.random.Generator:
    """Stream for a replication, derived from (seed, replication) only.

    Parallel schedulers can hand replications to any worker in any order and
    still reproduce results bit for bit.
    """
    entropy = (int(seed),) if replication is None else (int(seed), int(replication))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def simulate(design: SyntheticDesign, n: int, replication: int | None = None) -> CensoredSample:
    """Draw a censored sample of size n from the design.

    Deterministic given (design, n, replication); the contamination mask is
    drawn first, so a design with contamination_fraction = 0 consumes the
    random stream exactly like an uncontaminated one.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = replication_rng(design.seed, replication)
    fam, theta = design.lifetime.resolve()
    contaminated = rng.random(n) < design.contamination_fraction
    x = fam.sample(theta, rng, n)
    n_bad = int(contaminated.sum())
    if n_bad:
        cfam, ctheta = design.contamination.resolve()
        x[contaminated] = cfam.sample(ctheta, rng, n_bad)
    c = rng.exponential(design.censoring_mean, n)
    return CensoredSample(np.minimum(x, c), (x <= c).astype(np.int8))
