"""Host speed, measured between verdicts with fixed reference work.

The benchmark shares a few cores of a host with other tenants, and their load
makes the same code run up to twice as slowly for seconds to minutes at a
time, in the Python interpreter and in numpy alike.  ``HostProbe`` times three
small fixed kernels that belong to the benchmark, not to the program, so a
change to the program cannot change them:

* ``python``: an interpreted loop over small ints and a dict, like the
  per-call Python work of the ``lie-exact`` verdicts;
* ``numpy-small``: elementwise numpy on 10^4 floats (cache-resident), like
  the chart backend's per-sample arrays;
* ``numpy-large``: elementwise numpy on 10^6 floats (16 MB, beyond cache),
  like the ``jacobi`` grids.

A probe's *slowdown* is the mean over the three kernels of time over
``NOMINAL_S``, their typical times on the 2-vCPU Xeon (2.1 GHz) this
benchmark was tuned on, so 1.0 is that host at its usual load.  A verdict that
started at time ``t`` is scaled by the median slowdown of the ``WINDOW``
probes before ``t`` and the ``WINDOW`` after it: its time in seconds at
nominal host speed.  Probes run only between verdicts, at most one per
``INTERVAL_S``, and are never inside a verdict's timed span.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = (0.32e-3, 0.24e-3, 2.4e-3)
INTERVAL_S = 0.02
WINDOW = 3
WARMUP = 20


class HostProbe:
    """Slowdown samples of one run, with the time each was taken."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random(10_000)
        self._small_out = np.empty_like(self._small)
        self._large = rng.random(1_000_000)
        self._large_out = np.empty_like(self._large)
        self._table = {i: str(i) for i in range(64)}
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        for _ in range(WARMUP):
            self._measure()

    def _python(self) -> int:
        table, total = self._table, 0
        for i in range(3000):
            total += len(table[i & 63]) + (i * i) % 7
        return total

    def _numpy(self, a, out, repeats) -> None:
        for _ in range(repeats):
            np.multiply(a, 1.0001, out=out)
            np.add(out, a, out=out)

    def _measure(self) -> float:
        t0 = time.perf_counter()
        self._python()
        t1 = time.perf_counter()
        self._numpy(self._small, self._small_out, 40)
        t2 = time.perf_counter()
        self._numpy(self._large, self._large_out, 1)
        t3 = time.perf_counter()
        parts = (t1 - t0, t2 - t1, t3 - t2)
        return sum(p / n for p, n in zip(parts, NOMINAL_S)) / len(parts)

    def sample(self, force: bool = False) -> None:
        """Take a probe, unless one was taken less than ``INTERVAL_S`` ago."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= INTERVAL_S:
            self.slowdowns.append(self._measure())
            self.times.append(now)

    def slowdown_at(self, started: float) -> float:
        """Median slowdown of the probes around a span that started at ``started``."""
        i = bisect.bisect_right(self.times, started)
        return statistics.median(self.slowdowns[max(0, i - WINDOW):i + WINDOW])

    def scaled(self, started: float, seconds: float) -> float:
        return seconds / self.slowdown_at(started)
