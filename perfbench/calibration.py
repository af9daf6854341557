"""Timing corrected for the machine's speed while the timed code ran.

On a shared machine the throughput of one core drifts: on the 2-core
machine this benchmark was built on, the same pure-Python computation
took up to 1.7x longer from one 10-second window to the next, with CPU
time equal to wall time (contention for the physical core, invisible to
the process).  Raw medians of 20-second windows of one repeated
operation spread 32% (quartile distance over median); the same medians
with every sample divided by a calibration loop timed next to it spread
3-7%.  Timing a calibration loop only before and after an operation
does not follow the drift during operations of several seconds, so the
machine's speed is sampled while the operation runs.

While a ``Stopwatch`` is active, SIGALRM interrupts the process every
``TICK_S`` seconds and the handler times ``_loop``, a fixed amount of
pure-Python rational arithmetic and dict work (the instruction mix of
the exact engine).  An operation's time is its wall time minus the time
spent in those interruptions, scaled by ``CAL_REF_S`` over the median
loop time sampled while it ran.  It reads as seconds at the speed the
loop has on a quiet core of that machine.  The loop does not touch the
package, so a change to the package moves only the timed operation.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.02
TICK_ITERATIONS = 250
# Time of one ``_loop()`` on a quiet core of the 2-core machine the
# benchmark was built on (Python 3.11).  A constant: it only sets the
# unit in which calibrated times read.
CAL_REF_S = 0.001
# An operation shorter than this many ticks is scaled by the latest ones.
MIN_TICKS = 5


def _loop() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1, TICK_ITERATIONS):
        f = Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
        acc += f
        table[(i % 97, i % 89)] = f


class Stopwatch:
    """Times operations and scales each by the speed sampled during it.

    Use as a context manager: sampling runs while it is active.  With
    ``calibrated=False`` it reports raw seconds and installs no signal
    handler (the traced run, whose spans must not contain the loop)."""

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.ticks: list[tuple[float, float]] = []  # (interruption seconds, loop seconds)
        self.scales: list[float] = []
        self._previous = None

    def __enter__(self) -> "Stopwatch":
        if self.calibrated:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.calibrated:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        loop = time.perf_counter() - start
        self.ticks.append((time.perf_counter() - start, loop))

    def measure(self, fn):
        """Run fn(); returns (its result, raw seconds, calibrated seconds).
        Raw seconds exclude the sampling interruptions."""
        first = len(self.ticks)
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if not self.calibrated:
            return result, elapsed, elapsed
        during = self.ticks[first:]
        raw = elapsed - sum(pause for pause, _ in during)
        if len(during) < MIN_TICKS:
            during = self.ticks[-MIN_TICKS:]
        if not during:  # sampling has not ticked yet
            start = time.perf_counter()
            _loop()
            during = [(0.0, time.perf_counter() - start)]
        scale = CAL_REF_S / statistics.median(loop for _, loop in during)
        self.scales.append(scale)
        return result, raw, raw * scale
