"""Shared helpers: reproducible CSV and JSON I/O and float formatting.

All CSV files written by this package use comma separators, a mandatory
header row, UTF-8, '.' as the decimal separator and 12-significant-digit
float formatting; JSON files use sorted keys, a one-space indent and a
trailing newline. Reruns with identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Iterable, Sequence


def fmt_float(x: float) -> str:
    """Render a real with 12 significant digits ('%.12g')."""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return "%.12g" % x


def fmt_cell(value) -> str:
    """Render a CSV cell: floats via fmt_float, None/NaN as empty, rest as str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows to ``path`` with a header, using the package CSV dialect."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([fmt_cell(v) for v in row])


def write_json(path: str, doc, default=None) -> None:
    """Write ``doc`` to ``path`` in the package JSON layout; ``default`` is
    json.dump's hook for values it cannot encode itself."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, default=default)
        fh.write("\n")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read a CSV file, returning (header, rows of raw strings)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV, header row is mandatory")
        rows = [row for row in reader]
    return header, rows


def parse_float_cell(cell: str) -> float:
    """Parse a CSV cell to float; empty or NA-like cells become NaN."""
    text = cell.strip()
    if text == "" or text.upper() in ("NA", "NAN", "NONE"):
        return math.nan
    return float(text)


def reject_duplicate_ids(ids: Iterable[str], path: str,
                         what: str = "subject ID") -> None:
    """ValueError naming ``path`` and the first ``what`` seen twice."""
    seen = set()
    for sid in ids:
        if sid in seen:
            raise ValueError(f"{path}: duplicate {what} {sid!r}")
        seen.add(sid)
