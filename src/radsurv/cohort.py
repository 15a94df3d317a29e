"""Cohort container: subjects x features plus survival targets and metadata.

A feature table is a ``subject_id`` column, then one column per feature
name, with NaN as an empty cell; ``write_features_csv`` is its one writer
and ``read_features_csv`` its one reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .util import read_cell, read_csv, write_csv
from .volumeio import SubjectRecord, read_metadata_csv, write_metadata_csv


@dataclass
class Cohort:
    """Feature table (NaN marks missing values) joined with subject metadata."""

    subject_ids: list[str]
    feature_names: list[str]
    X: np.ndarray                 # (n, p) float64, NaN for missing
    survival_days: np.ndarray     # (n,) float64, NaN when unknown
    records: list[SubjectRecord]
    source: str = "cohort"        # the metadata CSV of a loaded cohort

    def __post_init__(self):
        n, p = self.X.shape
        if len(self.subject_ids) != n or len(self.records) != n:
            raise ValueError("subject count mismatch between table and metadata")
        if len(self.feature_names) != p:
            raise ValueError("feature name count does not match table width")
        if self.survival_days.shape != (n,):
            raise ValueError("survival_days length does not match subject count")

    @property
    def n_subjects(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.feature_names.index(name)]

    def select(self, names: list[str]) -> np.ndarray:
        """Return the (n, len(names)) submatrix in the requested column order."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise KeyError(f"cohort lacks features {missing}")
        idx = [self.feature_names.index(n) for n in names]
        return self.X[:, idx]

    def known_survival(self) -> np.ndarray:
        """``survival_days``, or a ValueError naming the first unknown."""
        for sid, days in zip(self.subject_ids, self.survival_days):
            if np.isnan(days):
                raise ValueError(f"{self.source}: subject {sid!r} has no "
                                 "Survival_days")
        return self.survival_days

    def subset(self, row_mask: np.ndarray) -> "Cohort":
        rows = np.nonzero(np.asarray(row_mask, dtype=bool))[0]
        return replace(
            self, subject_ids=[self.subject_ids[i] for i in rows],
            X=self.X[rows], survival_days=self.survival_days[rows],
            records=[self.records[i] for i in rows])

    def resection_mask(self, statuses: tuple[str, ...]) -> np.ndarray:
        return np.array([r.resection_status in statuses for r in self.records])

    def write_features_csv(self, path: str) -> None:
        write_features_csv(path, self.subject_ids, self.feature_names, self.X)

    def write_metadata_csv(self, path: str) -> None:
        write_metadata_csv(path, self.records)


def write_features_csv(path: str, ids, names, X) -> None:
    """Write ``X``, one row per id and one column per name, as a feature
    table; a NaN cell is written empty."""
    rows = np.asarray(X, dtype=np.float64).reshape(len(ids), len(names))
    write_csv(path, ["subject_id", *names],
              ([sid, *row] for sid, row in zip(ids, rows.tolist())))


def read_features_csv(path: str):
    """Read a feature table: (subject ids, feature names, (n, p) float64 X
    with NaN for missing cells); every cell is read by ``util.read_cell``."""
    header, rows = read_csv(path, key="subject_id")
    if header[0] != "subject_id":
        raise ValueError(f"{path}: first column must be 'subject_id'")
    names = header[1:]
    X = np.array([[read_cell(path, row[0], name, cell, missing=True)
                   for name, cell in zip(names, row[1:])] for row in rows],
                 dtype=np.float64).reshape(len(rows), len(names))
    return [row[0] for row in rows], names, X


def load_cohort(features_csv: str, metadata_csv: str) -> Cohort:
    """Join a feature CSV with a metadata CSV on subject id; a feature CSV
    without subject rows is rejected."""
    ids, feature_names, X = read_features_csv(features_csv)
    if not ids:
        raise ValueError(f"{features_csv}: no subject rows")
    by_id = {rec.subject_id: rec for rec in read_metadata_csv(metadata_csv)}
    records = []
    for sid in ids:
        if sid not in by_id:
            raise KeyError(f"{metadata_csv}: no metadata row for subject {sid!r}")
        records.append(by_id[sid])
    survival = np.array(
        [math.nan if r.survival_days is None else float(r.survival_days)
         for r in records], dtype=np.float64)
    return Cohort(subject_ids=ids, feature_names=feature_names, X=X,
                  survival_days=survival, records=records, source=metadata_csv)
