"""Bundled study data.

veteran.csv holds the Veterans' Administration lung cancer trial (137
patients, two treatment regimens; arm A is the standard treatment, arm B the
test treatment; 9 observations censored) with columns (time, status, arm):
time is the survival time in days.  These are the CLI's default column
names, so the file reads like any other input CSV.
"""

from __future__ import annotations

from importlib import resources

from ..data import CensoredSample, ingest_csv, ingest_csv_arms

__all__ = ["veteran_csv_path", "load_veteran"]


def veteran_csv_path() -> str:
    """Filesystem path of the bundled veteran trial CSV."""
    return str(resources.files(__package__).joinpath("veteran.csv"))


def load_veteran() -> dict[str, CensoredSample]:
    """Samples keyed 'A', 'B' and 'combined'."""
    path = veteran_csv_path()
    return {**ingest_csv_arms(path, arm_column="arm"), "combined": ingest_csv(path)}
