"""Shared helpers: reproducible CSV and JSON I/O and float formatting.

All CSV files written by this package use comma separators, a mandatory
header row, UTF-8, '.' as the decimal separator and 12-significant-digit
float formatting; JSON files are json.dumps text with sorted keys, a
one-space indent (none in model.json, which is for machines) and a
trailing newline, written all at once. Reruns with identical inputs
produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Iterable, Optional, Sequence

import numpy as np


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


class UnencodableValueError(TypeError):
    """A value in a JSON document that the package writer cannot write."""

    def __init__(self, path: str, value, what: str = "a value"):
        kind = type(value)
        name = kind.__qualname__ if kind.__module__ == "builtins" \
            else f"{kind.__module__}.{kind.__qualname__}"
        super().__init__(f"{path or 'the document'}: cannot encode {what} "
                         f"of type {name} as JSON")
        self.path = path


def _fault(doc, path: str = "") -> Optional[Exception]:
    """The error naming the key path, from ``path``, of a non-string key,
    number that is not finite, value json cannot write or container holding
    itself in ``doc``, found with an explicit stack of (value, key path, ids
    of the enclosing containers)."""
    stack = [(doc, path, frozenset())]
    while stack:
        value, path, enclosing = stack.pop()
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, dict):
            bad = [key for key in value if not isinstance(key, str)]
            if bad:
                return UnencodableValueError(path, bad[0], "a key")
            children = [(f"{path}.{key}".lstrip("."), child)
                        for key, child in value.items()]
        elif isinstance(value, (list, tuple)):
            children = [(f"{path}[{i}]", child)
                        for i, child in enumerate(value)]
        elif isinstance(value, float) and not math.isfinite(value):
            return ValueError(f"{path or 'the document'}: {value} is not a "
                              "finite number")
        elif value is None or isinstance(value, (str, int, float)):
            continue
        else:
            return UnencodableValueError(path, value)
        if id(value) in enclosing:
            return ValueError(f"{path or 'the document'}: circular reference")
        stack += [(child, key, enclosing | {id(value)})
                  for key, child in reversed(children)]
    return None


def finite(doc, where: str):
    """``doc``, a JSON value at key path ``where`` whose numbers are all
    finite; a ValueError names the key path of the first that is not."""
    fault = _fault(doc, where)
    if fault is not None:
        raise fault
    return doc


def write_json(path: str, doc, indent: Optional[int] = 1) -> None:
    """Write ``doc`` to ``path`` as ``json.dumps(doc, sort_keys=True,
    indent=indent)`` (arrays as lists) and a newline, replacing the file in
    one step once all is encoded, so a failed write changes no file.
    ``indent=None`` writes compact text, which json encodes in C; any
    indent selects its pure-Python encoder. A value or key json cannot
    write raises UnencodableValueError naming its key path; a number that
    is not finite, or a container that holds itself, raises ValueError."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False,
                          default=np.ndarray.tolist) + "\n"
    except (TypeError, ValueError) as exc:
        raise _fault(doc) or exc from None
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.unlink(partial)
        raise


def read_csv(path: str, key: Optional[str] = None, required: Sequence[str] = ()
             ) -> tuple[list[str], list[list[str]]]:
    """(header, rows of raw strings) of a CSV table, each ``key`` cell
    stripped of surrounding whitespace. A ValueError naming ``path`` rejects
    bytes that are not UTF-8 (by offset), a stray or unclosed quote (by
    line), an empty file, a repeated column name, a missing ``required`` or
    ``key`` column, a row whose cell count is not the header's (a blank line
    has 0 cells), naming it by its ``key`` cell (or first cell), and a
    ``key`` value that appears twice."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte {exc.start} "
                         f"({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        header = next(reader, [])
        rows = list(reader)
    except csv.Error as exc:    # a stray or unclosed quote
        raise ValueError(f"{path}: malformed CSV at line {reader.line_num}: "
                         f"{exc}") from None
    if not header:
        raise ValueError(f"{path}: empty CSV, header row is mandatory")
    reject_duplicate_ids(header, path, "column name")
    missing = [c for c in (key, *required) if c and c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    at = 0 if key is None else header.index(key)
    for row in rows:
        if len(row) != len(header):
            name = row[at] if at < len(row) else ""
            raise ValueError(f"{path}: subject {name!r} has {len(row)} "
                             f"cells, the header has {len(header)}")
    if key is not None:
        for row in rows:
            row[at] = row[at].strip()
        reject_duplicate_ids((row[at] for row in rows), path)
    return header, rows


def read_json(path: str, what: str, kind: type = dict):
    """The JSON document in ``path``, whose role ``what`` names. A ValueError
    naming the file rejects text that is not valid JSON, nesting too deep
    for ``json.load`` and a top level that is not a ``kind`` (dict or list)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {what} is not valid JSON: "
                             f"{exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: nested too deeply to read") from None
    if not isinstance(doc, kind):
        raise ValueError(f"{path}: {what} must hold a JSON "
                         f"{'object' if kind is dict else 'array'}, "
                         f"not {type(doc).__name__}")
    return doc


POSITIVE = math.ulp(0.0)    # as ``low``: accept the numbers above 0


def numbers(value, where: str, kinds: str = "if", shape=None, low=None,
            high=None) -> np.ndarray:
    """``value``, a JSON number or a rectangular nest of lists of them, as
    an array of a numpy kind in ``kinds`` ("i": JSON integers, not 10.0) and
    of ``shape`` (None: any shape or length). A ValueError naming ``where``
    rejects anything else (true or false anywhere, an integer beyond int64)
    and names the index of an entry not finite or outside ``low``..``high``."""
    try:
        array = np.array(value)
    except (ValueError, OverflowError):     # ragged
        array = None
    ok = array is not None and array.dtype.kind in kinds and (
        shape is None or len(shape) == array.ndim and all(
            n in (None, m) for n, m in zip(shape, array.shape)))
    if ok and array.ndim:           # numpy reads [true, 2] as [1, 2]
        rows = [value]
        for _ in range(array.ndim - 1):
            rows = [item for row in rows for item in row]
        ok = not any(bool in map(type, row) for row in rows)
    if not ok:
        noun = "integer" if kinds == "i" else "number"
        raise ValueError(f"{where}: expected " + (
            ("an integer" if kinds == "i" else "a number") if shape == ()
            else f"{noun}s" + ("" if shape is None else f" ({len(shape)}-d)"
                               if None in shape else f" of shape {shape}")))
    bad = (~np.isfinite(array) | (array < (-math.inf if low is None else low))
           | (array > (math.inf if high is None else high)))
    if bad.any():
        at = np.unravel_index(bad.argmax(), array.shape)
        lo, hi = ("" if b is None else f"{b:g}" for b in (low, high))
        what = "a finite positive number" if low == POSITIVE else (
            "an integer" if kinds == "i" else "a finite number") + (
            f" in {lo}..{hi}" if lo and hi else f" >= {lo}" if lo else
            f" <= {hi}" if hi else "")
        raise ValueError(f"{where}{''.join(f'[{i}]' for i in at)}: "
                         f"{array[at].item()} is not {what}")
    return array


def of_type(kind: type):
    """The decoder ``(value, key path, *unused)`` of a ``kind``, as given."""
    def decode(value, where: str, *unused):
        if not isinstance(value, kind):
            name = {dict: "object", list: "array", str: "string",
                    bool: "boolean"}[kind]
            raise ValueError(f"{where} must be a JSON {name}, "
                             f"not {type(value).__name__}")
        return value
    return decode


def one_of(choices):
    """The decoder ``(value, key path, *unused)`` of one of ``choices``."""
    def decode(value, where: str, *unused):
        if not (isinstance(value, str) and value in choices):
            raise ValueError(f"{where} must be one of {list(choices)}, "
                             f"not {value!r}")
        return value
    return decode


def fields(doc, decoders: dict, where: str = "", *args, required=(),
           unknown: str = "unknown key {key}",
           missing: str = "{key} is required") -> dict:
    """``{key: decoders[key](value, key path, *args)}`` over the JSON object
    ``doc`` at key path ``where``. A ValueError rejects a ``doc`` that is not
    an object, and a key ``decoders`` lacks or a ``required`` key ``doc``
    lacks, worded by ``unknown`` or ``missing``: ``{key}`` is the first such
    key's path, ``{keys}`` the list of them (unknown ones sorted)."""
    of_type(dict)(doc, where or "the document")
    prefix = where + "." if where else ""
    for words, keys in ((unknown, sorted(set(doc) - set(decoders))),
                        (missing, [k for k in required if k not in doc])):
        if keys:
            raise ValueError(words.format(key=prefix + keys[0], keys=keys))
    return {key: decoders[key](value, prefix + key, *args)
            for key, value in doc.items()}


def parse_float_cell(cell: str) -> float:
    """Parse a CSV cell to float; empty or NA-like cells become NaN."""
    text = cell.strip()
    if text == "" or text.upper() in ("NA", "NAN", "NONE"):
        return math.nan
    return float(text)


def parse_cell(path: str, subject: str, column: str, text: str,
               parse=float) -> float:
    """``parse(text)``, or a ValueError naming the file, the subject and the
    column of a cell that does not hold a number."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{path}: subject {subject!r} column {column!r} "
                         f"holds a non-numeric value {text!r}") from None


def reject_duplicate_ids(ids: Iterable[str], path: str,
                         what: str = "subject ID") -> None:
    """ValueError naming ``path`` and the first ``what`` seen twice."""
    seen = set()
    for sid in ids:
        if sid in seen:
            raise ValueError(f"{path}: duplicate {what} {sid!r}")
        seen.add(sid)
