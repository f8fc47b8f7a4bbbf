"""Times in reference seconds: host speed factored out by a calibration loop.

On a shared host the speed of the same pure-Python work drifts by a factor
of two within seconds (other tenants load the physical cores), and CPU time
drifts with it, so neither wall nor CPU seconds of one run say much about
the code.  While a `Clock` is entered, a timer signal runs a fixed
pure-Python loop, of the same kind of work as setpart (integer arithmetic,
tuples, lists, dicts, small calls), every `every_s` seconds, in the same
thread as the measured work, so inside long calls too.  Each stretch of
work between two calibrations is scaled by REF_S over their mean time:

    reference seconds = measured seconds * REF_S / calibration seconds

that is, the time the work would take on a host where the loop takes
REF_S.  The calibrations' own time is taken out of the measured interval.
Work made slower or faster in the library moves the reference seconds by
the same factor; a slower host moves both the work and the loop.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_S = 0.0015  # calibration loop time that defines the reference speed


def _step(acc: int, i: int, row: list) -> int:
    return (acc * 31 + row[i & 15] + i) & 0xFFFFF


def calibration_loop() -> int:
    acc = 0
    row = list(range(16))
    seen: dict[int, int] = {}
    for i in range(3000):
        acc = _step(acc, i, row)
        key = acc & 255
        seen[key] = seen.get(key, 0) + 1
        pair = (key, i)
        if pair[0] & 1:
            row[i & 15] = pair[1] & 7
    return acc + len(seen)


class Clock:
    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        # Start, end and duration of each calibration, in perf_counter order.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        self._handler = None
        calibration_loop()

    def calibrate(self) -> None:
        t0 = perf_counter()
        calibration_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    def _on_timer(self, signum, frame) -> None:
        self.calibrate()

    def __enter__(self) -> "Clock":
        self.calibrate()
        self._handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.calibrate()

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        """(i, j): calibration i is the last to end by t0, j the first to
        start at or after t1; those between ran inside [t0, t1].  A
        calibration runs in the measuring thread, so none straddles t0 or t1."""
        i = max(0, bisect_right(self.ends, t0) - 1)
        j = min(len(self.starts) - 1, bisect_left(self.starts, t1))
        return i, j

    def work_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside the calibrations that ran inside it."""
        i, j = self._inside(t0, t1)
        return (t1 - t0) - sum(self.costs[i + 1 : j])

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the work in [t0, t1]: each stretch between
        calibrations scaled by the mean of the two around it."""
        i, j = self._inside(t0, t1)
        total, start = 0.0, t0
        for c in range(i + 1, j):
            total += (self.starts[c] - start) * 2 / (self.costs[c - 1] + self.costs[c])
            start = self.ends[c]
        total += (t1 - start) * 2 / (self.costs[max(i, j - 1)] + self.costs[j])
        return total * REF_S

    def median_cost_s(self) -> float:
        costs = sorted(self.costs)
        return costs[len(costs) // 2]
