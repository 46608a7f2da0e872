"""The host's momentary speed, sampled with a fixed reference loop.

On a shared host the same single-threaded job runs up to twice as slow for
seconds or minutes at a time, while other tenants load the machine; no
window or median over the job's own times removes that drift.  While a
timed block runs, an interval timer interrupts it every INTERVAL_S and runs
one unit of a fixed pure-Python loop, which slows down with the host.  The
block's time, less the time spent in those samples, divided by the mean
sample and multiplied by REFERENCE_UNIT_S, is the block's time at a fixed
reference speed: the time it would take on a host where one unit takes
REFERENCE_UNIT_S.

The loop resembles the program's hot paths (bit masks, list updates, small
tuples, float arithmetic and calls) but does not import the program, so a
change to specagg cannot change the reference.  Python runs the sampling
handler between bytecodes of the main thread, so a long call into C delays
a sample but is never cut short; interrupted system calls are retried.
"""

from __future__ import annotations

import signal
import time

UNIT_ITERATIONS = 500
INTERVAL_S = 0.02
# Seconds per unit on a 2-vCPU Intel Xeon VM with Python 3.11 when the
# benchmark was defined; only a scale, so that normalised times read in
# seconds near the measured ones.
REFERENCE_UNIT_S = 0.0011


def _step(backlog: list, occupancy: int, x: int) -> tuple[int, int]:
    arrivals = x & 0xFFFF
    while arrivals:
        low = arrivals & -arrivals
        backlog[low.bit_length() - 1] += 1
        occupancy |= low
        arrivals ^= low
    return occupancy & (x >> 8), (occupancy & (x >> 8)).bit_count()


def _unit() -> float:
    backlog = [0] * 16
    occupancy = 0
    x = 12345
    total = 0.0
    history = []
    for _ in range(UNIT_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        occupancy, width = _step(backlog, occupancy, x)
        total += (x & 1023) / 1024.0 * 0.5**width
        history.append((width, total))
    return total + len(history)


def _timed_unit() -> float:
    start = time.perf_counter()
    _unit()
    return time.perf_counter() - start


class SpeedMeter:
    """Times a block and samples the reference loop while it runs.

    After the block, `seconds` is its wall time less the sampling time and
    `unit_s` the mean seconds per reference unit during it.
    """

    _active: SpeedMeter | None = None

    @classmethod
    def _on_alarm(cls, signum, frame) -> None:
        meter = cls._active
        if meter is not None:
            meter.samples.append(_timed_unit())

    def __enter__(self) -> SpeedMeter:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, SpeedMeter._on_alarm)
        SpeedMeter._active = self
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        SpeedMeter._active = None
        self.seconds = end - self._start - sum(self.samples)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(_timed_unit())
        self.unit_s = sum(self.samples) / len(self.samples)


def normalised(seconds: float, unit_s: float) -> float:
    """A time measured while one reference unit took unit_s, at the reference speed."""
    return seconds * REFERENCE_UNIT_S / unit_s
