"""Host time, normalized to a reference interpreter speed.

Shared hosts change speed by up to 2x within seconds (a virtual CPU
lands on a busy or an idle core).  A :class:`HostClock` times a
repetition in chunks and runs a fixed pure-Python kernel between
chunks; the kernel's mean time over the repetition, against
:data:`REFERENCE_KERNEL_S`, is the repetition's *speed* factor.
Dividing a duration by it gives the duration at reference speed, which
is what the benchmark reports.  The kernel never touches the program,
so a change to the program moves the normalized figures exactly as it
moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

#: Kernel time that defines reference speed (about this kernel's time
#: on a 2-core Intel Xeon cloud VM running Python 3.11).
REFERENCE_KERNEL_S = 0.010
#: Kernel runs per calibration; their median is the calibration.
KERNEL_RUNS = 3


def kernel() -> int:
    """Fixed interpreter-bound work: dict traffic and integer arithmetic."""
    table = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0) & 15
    return total


def calibrate() -> float:
    """Median kernel time over :data:`KERNEL_RUNS` runs."""
    samples = []
    for _ in range(KERNEL_RUNS):
        begin = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


class HostClock:
    """A clock that excludes calibration pauses, plus the host speed factor."""

    def __init__(self) -> None:
        self._paused = 0.0
        #: clock time of each calibration, and its kernel time
        self._times: List[float] = []
        self.calibrations: List[float] = []
        self.calibrate()

    def now(self) -> float:
        """Seconds on a clock that stops while the kernel runs."""
        return time.perf_counter() - self._paused

    def calibrate(self) -> None:
        begin = time.perf_counter()
        self.calibrations.append(calibrate())
        self._paused += time.perf_counter() - begin
        self._times.append(self.now())

    def maybe_calibrate(self, every_s: float) -> None:
        """Calibrate if ``every_s`` seconds passed since the last calibration."""
        if self.now() - self._times[-1] >= every_s:
            self.calibrate()

    @property
    def speed(self) -> float:
        """Mean kernel time over the reference time (> 1: a slow host)."""
        return statistics.mean(self.calibrations) / REFERENCE_KERNEL_S

    def speed_at(self, when: float) -> float:
        """The speed factor of the calibrations around clock time ``when``."""
        index = bisect.bisect_left(self._times, when)
        around = self.calibrations[max(index - 1, 0) : index + 1]
        return statistics.mean(around) / REFERENCE_KERNEL_S

    def normalize_lags(self, lags: Sequence[Tuple[float, float]]) -> List[float]:
        """``(end time, lag)`` pairs -> lags at reference speed.

        A lag spans milliseconds, too short for the repetition's mean
        speed to describe it, so each is scaled by the calibrations
        around its end.
        """
        return [lag / self.speed_at(when) for when, lag in lags]
