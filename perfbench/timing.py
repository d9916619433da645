"""Job times corrected for the state of a shared machine.

The 2-vCPU host this benchmark was built on (Intel Xeon, 2.1 GHz) runs in
two states that flip every 0.1 to 25 s.  In the slow state the same code takes
1.45-1.8x longer, whatever the program does.  So while an interval is timed,
a fixed reference computation with no qmsemi code in it (an interpreter loop
and eigensolves of a 6x6 matrix) runs just before it, just after it, and
every 10 ms inside it from a SIGALRM handler.  The handler's own time is
taken out of the interval, and the rest is scaled by the reference's
fast-state time over its mean time in those samples.  The raw times are kept
in the result file.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# Fast-state times of the two reference sizes on the host above.  They only
# set the unit: a scaled time is what the interval takes on a machine in the
# state where the references take this long.
BRACKET_S = 0.0029
TICK_S = 0.00029
TICK_PERIOD_S = 0.01


class Reference:
    def __init__(self):
        a = np.random.default_rng(0).standard_normal((6, 6))
        self._matrix = a + a.T
        self._eigh = np.linalg.eigh  # bound before a traced run wraps numpy.linalg
        self.samples: list[float] = []  # reference time / its fast-state time
        self._tick_s = 0.0
        self._run(10)  # the first calls pay for lazy set-up

    def _run(self, scale: int) -> float:
        t0 = perf_counter()
        x = 0
        for i in range(3000 * scale):
            x += i
        for _ in range(20 * scale):
            self._eigh(self._matrix)
        return perf_counter() - t0

    def probe(self) -> float:
        dt = self._run(10)
        self.samples.append(dt / BRACKET_S)
        return dt

    def _tick(self, signum, frame) -> None:
        dt = self._run(1)
        self.samples.append(dt / TICK_S)
        self._tick_s += dt

    def time(self, fn, *args):
        """(fn(*args), raw seconds, scaled seconds)."""
        first = len(self.samples)
        self.probe()
        self._tick_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        start = perf_counter()
        try:
            out = fn(*args)
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()
        raw = end - start - self._tick_s
        state = self.samples[first:]
        return out, raw, raw * len(state) / sum(state)
