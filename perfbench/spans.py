"""In-memory span recorder for traced benchmark runs.

A span has a name, a start, an end and the span that was open when it
began. Spans stay in memory until the run writes them out once, at its end.
A span's self time is its duration minus the time its direct children
cover; children never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records spans when ``enabled``; otherwise ``span`` is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.notes: dict = {}       # op -> {name: value} for counts and sizes
        self.op = None              # the op the next spans belong to
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"name": name, "op": self.op,
                  "parent": self._open[-1] if self._open else None,
                  "start": 0.0, "end": 0.0}
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def note(self, name: str, value) -> None:
        """Attach a per-op number (a count or a size) to the current op."""
        if self.enabled:
            self.notes.setdefault(self.op, {})[name] = value

    @contextmanager
    def wrap(self, module, attr: str, name_of, on_result=None):
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``name_of`` is the span name, or a function of the call's arguments
        that returns it; ``on_result(name, result)`` runs after the span has
        closed, in a ``trace.bookkeeping`` span. The original is restored on
        exit.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else \
                name_of(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                # a span of its own, so the caller's self time excludes it
                with self.span("trace.bookkeeping"):
                    on_result(name, result)
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def per_op(self, inclusive: bool = False) -> dict:
        """Per op: total self time (or duration) of each span name."""
        totals: dict = {}
        times = ([s["end"] - s["start"] for s in self.spans] if inclusive
                 else self.self_times())
        for s, own in zip(self.spans, times):
            if s["op"] is None:
                continue
            names = totals.setdefault(s["op"], {})
            names[s["name"]] = names.get(s["name"], 0.0) + own
        return totals

    def children(self, op, name: str, parent_name: str) -> list[float]:
        """Durations of the ``name`` spans in ``op`` whose parent is a
        ``parent_name`` span."""
        return [s["end"] - s["start"] for s in self.spans
                if s["op"] == op and s["name"] == name
                and s["parent"] is not None
                and self.spans[s["parent"]]["name"] == parent_name]
