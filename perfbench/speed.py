"""Machine-speed probe: rescales wall times to a reference speed.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two over minutes, as other tenants load the same cores: the
same L = 5 solve took 3.4 s in one hour and 6.9 s in another.  A time
measured in one hour cannot be compared with one measured in another
unless the machine's speed is measured alongside it.

`SpeedProbe` does that without threads.  A SIGALRM interval timer
interrupts the benchmark every INTERVAL_S seconds of wall time; the
handler runs a fixed piece of standard-library `Fraction` arithmetic
(never `openloop` code, so no change to the program can speed the probe
up) and records how long it took.  `scaled(start, end)` then turns a
wall-time interval into seconds at the reference speed: the interval
minus the probe's own time inside it, times the mean over the samples
inside it of PROBE_REF_S / sample.  Samples are evenly spaced in wall
time, so that mean is the share of nominal work the machine did per
second over the interval.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from fractions import Fraction
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.1
# Mean duration of one probe on the reference machine (2-CPU Intel Xeon
# at 2.0 GHz, Python 3.11.7) while nothing else ran on it.
PROBE_REF_S = 0.00078


def probe_work() -> Fraction:
    """A fixed sum of products of small fractions: about 0.8 ms."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


class SpeedProbe:
    """Samples interpreter speed while active; use as a context manager."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        probe_work()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> list[float]:
        return self.durations[bisect_left(self.starts, start):bisect_left(self.starts, end)]

    def factor(self, start: float, end: float) -> float:
        """Reference speed over measured speed during [start, end).

        An interval too short to hold a sample takes the latest sample
        taken before its end."""
        inside = self._window(start, end) or [self.durations[bisect_left(self.starts, end) - 1]]
        return fmean(PROBE_REF_S / d for d in inside)

    def busy(self, start: float, end: float) -> float:
        """Wall time of [start, end) minus the probe's own time inside it."""
        return end - start - sum(self._window(start, end))

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end) would have taken at the reference speed."""
        return self.busy(start, end) * self.factor(start, end)
