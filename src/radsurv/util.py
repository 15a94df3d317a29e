"""Shared helpers: reproducible CSV and JSON I/O and float formatting.

All CSV files written by this package use comma separators, a mandatory
header row, UTF-8, '.' as the decimal separator and 12-significant-digit
float formatting; JSON files use sorted keys, a one-space indent and a
trailing newline. Reruns with identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from json.encoder import encode_basestring_ascii as _quote
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
    """A value in a JSON document that the package encoder cannot write."""

    def __init__(self, path: str, value, what: str = "a value"):
        kind = type(value)
        name = kind.__qualname__ if kind.__module__ == "builtins" \
            else f"{kind.__module__}.{kind.__qualname__}"
        super().__init__(f"{path or 'the document'}: cannot encode {what} "
                         f"of type {name} as JSON")
        self.path = path


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_text(value):
    """JSON text of a scalar as json.dumps writes it; None for any other
    value."""
    kind = type(value)
    if kind is float:
        return _float_text(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):      # np.float64 and other subclasses
        return _float_text(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    return None


def _path_text(path) -> str:
    """``a.b[2].c`` from the linked (parent, key) pairs the encoder keeps."""
    parts = []
    while path is not None:
        path, key = path
        parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return "".join(reversed(parts)).lstrip(".")


def encode_json(doc) -> str:
    """The text ``json.dumps(doc, sort_keys=True, indent=1)`` gives, built
    without recursion, so depth is bounded only by memory.

    Beyond json's own kinds it encodes numpy arrays as (nested) lists and
    any object with a ``json_fields()`` method as the dict that returns;
    dict keys must be strings. Any other value or key raises
    UnencodableValueError naming its key path; a container that holds
    itself raises ValueError.
    """
    text = _scalar_text(doc)
    if text is not None:
        return text
    out = []
    pads = ["\n"]
    orders = {}     # keys in insertion order -> sorted keys, their labels
    active = {}     # id -> object, of the containers enclosing the current one
    nested = {dict, list, tuple, np.ndarray}    # and json_fields types seen
    inf = math.inf
    float_repr = float.__repr__
    int_repr = int.__repr__
    # a str is literal text, an int closes the container with that id, a
    # tuple is a (container, depth, path) still to encode
    stack = [(doc, 0, None)]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
            continue
        if kind is int:
            del active[item]
            continue
        value, depth, path = item
        source = value
        kind = type(value)
        while len(pads) <= depth + 1:
            pads.append(pads[-1] + " ")
        inner = pads[depth + 1]
        if isinstance(value, np.ndarray):
            if value.dtype == np.float64 and value.ndim == 1 \
                    and value.size and np.isfinite(value).all():
                out.append("[" + inner + ("," + inner).join(
                    map(float_repr, value.tolist())) + pads[depth] + "]")
                continue
            # a float64 matrix goes row by row through the line above
            value = list(value) if value.dtype == np.float64 \
                and value.ndim > 1 else value.tolist()
            text = _scalar_text(value)          # from a 0-d array
            if text is not None:
                out.append(text)
                continue
        elif hasattr(value, "json_fields"):
            nested.add(kind)
            value = value.json_fields()
        if isinstance(value, dict):
            shape = tuple(value)
            order = orders.get(shape)
            if order is None:
                for key in shape:
                    if not isinstance(key, str):
                        raise UnencodableValueError(_path_text(path), key,
                                                    "a key")
                keys = sorted(shape)
                order = orders[shape] = (
                    keys, [_quote(key) + ": " for key in keys])
            keys, labels = order
            children = list(map(value.__getitem__, keys))
            text = "{"
            close_text = "}"
        elif isinstance(value, (list, tuple)):
            children = value
            keys = range(len(value))
            labels = [""] * len(value)
            text = "["
            close_text = "]"
        else:
            raise UnencodableValueError(_path_text(path), source)
        if not children:
            out.append(text + close_text)
            continue
        ident = id(source)
        if ident in active:
            raise ValueError(f"{_path_text(path) or 'the document'}: "
                             "circular reference")
        active[ident] = source
        separator = "," + inner
        # the container's text in order: literal runs between the children
        # that still need encoding
        pieces = []
        text += inner
        for label, child, key in zip(labels, children, keys):
            kind = type(child)
            if kind is float and -inf < child < inf:
                text += label + float_repr(child) + separator
            elif kind is int:
                text += label + int_repr(child) + separator
            elif kind in nested:
                pieces.append(text + label)
                pieces.append((child, depth + 1, (path, key)))
                text = separator
            else:
                scalar = _scalar_text(child)
                if scalar is None:
                    pieces.append(text + label)
                    pieces.append((child, depth + 1, (path, key)))
                    text = separator
                else:
                    text += label + scalar + separator
        pieces.append(text[:-len(separator)] + pads[depth] + close_text)
        pieces.append(ident)
        stack.extend(reversed(pieces))
    return "".join(out)


def write_json(path: str, doc) -> None:
    """Write ``doc`` to ``path`` in the package JSON layout (encode_json and
    a trailing newline). The whole text is encoded before any file is
    opened, and the file is replaced in one step: a failed write leaves no
    file behind and an existing file unchanged."""
    text = encode_json(doc) + "\n"
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
    bytes that are not UTF-8 (by offset), an empty file, a repeated column
    name, a missing ``required`` or ``key`` column, a row whose cell count
    is not the header's (a blank line has 0 cells), naming it by its ``key``
    cell (or first cell), and a ``key`` value that appears twice."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte {exc.start} "
                         f"({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    rows = list(reader)
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
