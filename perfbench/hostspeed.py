"""Host-speed reference, so op times from a shared host can be compared.

The benchmark runs on a few cores of a shared machine whose speed drifts
by tens of percent over seconds to minutes, with the load other tenants put
on it. The same op, timed a minute apart, differs by that much, and no
statistic taken within one run removes it.

So every untraced op is timed together with a fixed reference kernel: a
pure-Python loop and a NumPy sort, which call no radsurv code, so no change
to radsurv moves them. The kernel is timed once just before the op, every
``EVERY_S`` seconds while the op runs (from a ``SIGALRM`` handler, between
two bytecodes of the op) and once just after it. The time the handler takes
is taken out of the op's wall time. The op's adjusted time is

    adjusted = net wall * REFERENCE_S / median kernel time around the op

that is the op's time in seconds on a host where the kernel takes
``REFERENCE_S``. radsurv's subject extraction and forest fitting slowed
with host load much as the kernel did on the host the benchmark was
written on, so adjusted times spread less from run to run than raw wall
times (by up to five times there while the host's speed swung). The raw
times are reported too.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# a round figure near the kernel's median time (0.7-1.0 ms) on the 2-vCPU
# Xeon host the benchmark was written on, so adjusted times read as seconds
# there
REFERENCE_S = 1.0e-3
EVERY_S = 0.2           # seconds between kernel timings during an op


@dataclass(frozen=True)
class Timed:
    wall: float          # op wall time, sampling handler time taken out
    reference: float     # median kernel time before, during and after
    samples: int         # kernel timings behind ``reference``

    @property
    def adjusted(self) -> float:
        return self.wall * REFERENCE_S / self.reference


class HostSpeed:
    """Times calls together with the reference kernel."""

    def __init__(self):
        self._data = np.random.default_rng(0).random(1 << 14)
        for _ in range(5):                  # first calls load and fill caches
            self.kernel()

    def kernel(self) -> float:
        """Seconds one run of the reference kernel takes."""
        t0 = time.perf_counter()
        total = 0
        for i in range(8000):
            total += i * i
        np.sort(self._data)
        return time.perf_counter() - t0

    def time(self, call):
        """``(call(), Timed)``; exceptions from ``call`` propagate."""
        before = self.kernel()
        inside: list[float] = []

        def on_alarm(signum, frame):
            inside.append(self.kernel())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            t0 = time.perf_counter()
            result = call()
            wall = time.perf_counter() - t0
            during = list(inside)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        after = self.kernel()
        around = [before, *during, after]
        return result, Timed(wall - sum(during), statistics.median(around),
                             len(around))
