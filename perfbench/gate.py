"""Output correctness gate.

Every op's outputs are reduced to text rows formatted exactly as radsurv's
CSV writer formats them (``fmt_cell``: 12 significant digits) and hashed.
A row is checked three ways:

* at the default seed and full size, rows named in ``expected.json`` must
  match the digest fixed there;
* within a run, a row seen again (a cycled subject, a repeated command) must
  match its first digest;
* across processes, a row must match the digest an earlier run of the same
  radsurv and benchmark sources, workload, seed and scale stored in the
  digest cache.

Rows without a fixed digest (RFR metrics, the RFE ranking) are checked only
for repeat identity, because planned changes to tree growth change them.
"""

from __future__ import annotations

import hashlib
import json
import os

from radsurv.util import fmt_cell


def row_text(key: str, values) -> str:
    """``key`` plus the values as one CSV line (no quoting needed)."""
    return ",".join([key] + [fmt_cell(float(v)) for v in values])


def digest(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:24]


def source_digest(*trees: str) -> str:
    """Digest over every file of the given directory trees, by path."""
    h = hashlib.sha256()
    for tree in trees:
        for base, dirs, files in os.walk(tree):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, tree).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:24]


class Gate:
    def __init__(self, expected: dict[str, str], cache_path: str,
                 cache_prefix: str):
        self.expected = expected
        self.cache_path = cache_path
        self.prefix = cache_prefix
        self.seen: dict[str, str] = {}
        self.errors: list[str] = []
        try:
            with open(cache_path, "r", encoding="utf-8") as fh:
                self.cache = json.load(fh)
        except FileNotFoundError:
            self.cache = {}

    def check(self, key: str, text) -> bool:
        """True if the row passes every check that applies to it."""
        got = digest(text)
        refs = [("fixed digest", self.expected.get(key)),
                ("earlier op", self.seen.get(key)),
                ("earlier process", self.cache.get(self.prefix + key))]
        ok = True
        for source, want in refs:
            if want is not None and want != got:
                self.errors.append(f"{key}: {got} != {want} ({source})")
                ok = False
        self.seen.setdefault(key, got)
        return ok

    def save(self) -> None:
        """Merge this run's first digests into the cross-process cache."""
        for key, value in self.seen.items():
            self.cache.setdefault(self.prefix + key, value)
        os.makedirs(os.path.dirname(self.cache_path), exist_ok=True)
        tmp = f"{self.cache_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.cache, fh, sort_keys=True, indent=0)
        os.replace(tmp, self.cache_path)
