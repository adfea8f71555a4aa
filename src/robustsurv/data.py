"""Censored samples: ingestion, canonical ordering, synthetic generation,
and the one plot-ready CSV format that every writer in the package uses.

Everything downstream works on a :class:`CensoredSample`, which stores the
observed pairs (z, delta) sorted ascending in z with events (delta=1) placed
before censorings at tied times.  That tie rule is the standard product-limit
convention; the ordering fixes the order statistics and concomitants used by
the product-limit weights and all gamma-hat accumulations, so it is enforced
at construction and never revisited.

Every CSV the package writes (samples, product-limit curves, influence
curves, experiment reports and the command line's tables) goes through
:func:`_csv_table`: a header row, floats (numpy floats too) to 17
significant digits, so that they read back bit for bit, booleans as
"true"/"false", and LF line ends on every platform.  It formats each row in
one ``%`` operation, built per table for each combination of cell types.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import FamilySpec

__all__ = [
    "CensoredSample",
    "CsvFormatError",
    "SyntheticDesign",
    "ingest_csv",
    "ingest_csv_arms",
    "write_csv",
    "simulate",
    "replication_rng",
]


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
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file (header row required)")
        for col in filter(None, (time_column, status_column, arm_column)):
            if col not in header:
                raise CsvFormatError(f"{path}: missing column {col!r} (found {header})")
        index = {name: i for i, name in enumerate(header)}  # the last of repeated names wins
        ti, si, ai = index[time_column], index[status_column], index[arm_column] if arm_column else None
        rows = []
        for row in filter(None, reader):  # blank lines: skipped; line_num is the file line where row ends
            row += [""] * (len(header) - len(row))  # a short row's missing cells are empty
            raw_t, raw_s = row[ti].strip(), row[si].strip()
            try:
                t = float(raw_t)
            except ValueError:
                raise CsvFormatError(f"{path}:{reader.line_num}: column {time_column!r}: cannot parse {raw_t!r} as a time") from None
            if not math.isfinite(t) or t < 0.0:
                raise CsvFormatError(f"{path}:{reader.line_num}: column {time_column!r}: time must be a finite nonnegative number, got {raw_t!r}")
            if raw_s not in {"0", "1"}:
                raise CsvFormatError(f"{path}:{reader.line_num}: column {status_column!r}: status must be 0 or 1, got {raw_s!r}")
            rows.append((t, int(raw_s), None if ai is None else row[ai].strip()))
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


def _text(value) -> str:
    """A cell that is not a number: true/false, None as empty, else str() quoted
    as csv.writer quotes it (which characters force quotes varies by version)."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    text = "" if value is None else str(value)
    if any(c in text for c in ',"\r\n'):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text])
        text = buf.getvalue()[:-1]
    return text


def _csv_table(header, rows, path=None) -> str:
    """The package's CSV text (module docstring) of a header and rows of
    cells, each row a sequence; None and "" give empty cells.  Written to
    ``path`` when one is given; returned either way."""
    formats, lines = {}, []  # per cell types: the row's %-format, its text cells' indices
    for row in [header, *rows]:
        types = tuple(map(type, row))
        if types not in formats:  # floats (numpy floats too) as %.17g, integers as %d
            specs = ["%.17g" if issubclass(k, (float, np.floating)) else "%d"
                     if issubclass(k, (int, np.integer)) and k is not bool else "%s" for k in types]
            formats[types] = ",".join(specs), [i for i, spec in enumerate(specs) if spec == "%s"]
        fmt, text = formats[types]
        cells = tuple(_text(v) if i in text else v for i, v in enumerate(row)) if text else tuple(row)
        lines.append(fmt % cells if fmt != "%s" or cells[0] else '""')  # csv's "" for a lone empty field
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    return text


def write_csv(sample: CensoredSample, path, time_column: str = "time", status_column: str = "status") -> None:
    """Serialize a sample so that ingest(write(s)) == s."""
    _csv_table([time_column, status_column], zip(sample.z.tolist(), sample.delta.tolist()), path)


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
