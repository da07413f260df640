"""Wall time scaled to a nominal host speed.

Other tenants of a shared host slow it by up to 1.8x, in phases lasting
seconds to tens of seconds, which no affordable run length averages out.
So every timed call is bracketed by a calibration loop (stdlib ``Fraction``
arithmetic, no repository code), and while the call runs a timer signal
samples the same loop every ``TICK_S`` seconds.  The call's wall time, less
the time spent in those samples, is scaled by the loop's nominal speed over
its measured speed during the call.  The nominal speed is the loop's on an
unloaded 2.0 GHz x86-64 host with Python 3.11: 5 ms per ``CAL_ITERATIONS``.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

CAL_ITERATIONS = 1200           # bracketing loops, about 5 ms each
TICK_ITERATIONS = 240           # sampled loops, about 1 ms each
TICK_S = 0.05
NOMINAL_S_PER_ITERATION = 0.005 / CAL_ITERATIONS


def calibration_loop(iterations: int) -> float:
    """Seconds taken by a fixed amount of interpreter and big-number work."""
    step = Fraction(1, 64)
    x = Fraction(0)
    t0 = time.perf_counter()
    for i in range(iterations):
        x += step * (i % 5)
        x -= x.numerator // x.denominator
    return time.perf_counter() - t0


class Clock:
    """Times calls; with ``calibrate`` the times are scaled to nominal host
    speed, otherwise they are plain wall times."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.factors: list[float] = []   # nominal / measured speed, per call
        self._iterations = 0
        self._loop_s = 0.0
        self._paused_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._loop_s += calibration_loop(TICK_ITERATIONS)
        self._iterations += TICK_ITERATIONS
        self._paused_s += time.perf_counter() - t0

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``; return its time in seconds and its result."""
        if not self.calibrate:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            return time.perf_counter() - t0, out
        self._loop_s = calibration_loop(CAL_ITERATIONS)
        self._iterations = CAL_ITERATIONS
        self._paused_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self._loop_s += calibration_loop(CAL_ITERATIONS)
        self._iterations += CAL_ITERATIONS
        factor = NOMINAL_S_PER_ITERATION * self._iterations / self._loop_s
        self.factors.append(factor)
        return (wall - self._paused_s) * factor, out
