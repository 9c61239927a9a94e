"""Host-speed sampling, so that timings compare across a noisy host.

The benchmark runs on a shared host whose speed drifts by up to half
over a few seconds (CPU time tracks wall time, so it is not stolen
time).  While a run measures, a SIGALRM handler times a fixed
calibration kernel every PERIOD_S seconds.  Each timed span is then
reported at reference speed: its wall time, less the time the handler
took inside it, times REFERENCE_S over the median kernel time sampled
around the span.  A span at reference speed is what it would take on a
host where the kernel takes exactly REFERENCE_S.  A change to relspin
cannot move the kernel, so it moves the scaled times as it moves the
wall times.

No thread is started: the handler runs in the main thread between
bytecodes, and a blocking wait for a child process is interrupted,
sampled and resumed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25         # samples this far around a span count for it
REFERENCE_S = 5e-4      # kernel time that defines reference speed

_V = np.arange(16.0)


def kernel():
    """Interpreter loop plus small-array numpy calls, like relspin's
    per-state arithmetic; about 0.5 ms on a 2.1 GHz Xeon."""
    s = 0.0
    for i in range(4000):
        s += i * 0.5
    for _ in range(200):
        s += float((_V * 1.5 + _V) @ _V)
    return s


class Sampler:
    """Samples the kernel's duration while installed (a context manager)."""

    def __init__(self):
        self.at = []        # sample start times
        self.cost = []      # kernel durations
        self.busy = 0.0     # total time spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.cost.append(dt)
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def start(self):
        return time.perf_counter(), self.busy

    def stop(self, token):
        """(wall time less handler time, end time) of a span from start()."""
        t0, busy0 = token
        t1 = time.perf_counter()
        return t1 - t0 - (self.busy - busy0), t1

    def factor(self, t0, t1):
        """REFERENCE_S over the median kernel time around [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:        # no sample close by: take the nearest one
            after = lo < len(self.at)
            if not after or (lo > 0 and
                             t0 - self.at[lo - 1] < self.at[lo] - t1):
                lo -= 1
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.cost[lo:hi])
