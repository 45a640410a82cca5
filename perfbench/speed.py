"""The host's current speed, measured apart from the program.

The measuring host is shared, and its speed moves by 10-30% from one minute
to the next (``README.md``, "Steadiness").  A child interpreter that imports
nothing of the program times a fixed pure-Python loop between requests, and
each request of the timed phase is scaled to the speed at which that loop
takes ``REFERENCE_SECONDS``, using the host's speed interpolated at the
request's midpoint.  The program's state cannot slow the child, so a slower
program is never scaled away; the raw values are printed beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: The loop's time on the measuring host (2-core container, CPython 3.11)
#: when it is not contended; scaled metrics are "as if at this speed".
REFERENCE_SECONDS = 0.04
#: Loop timings per sampling point, and the least time between two points.
REPEATS = 10
INTERVAL_SECONDS = 3.0

_LOOP = r"""
import sys, time
def loop():
    started = time.perf_counter()
    table, total = {}, 0
    for i in range(40_000):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + 1
        total += len(frozenset((i & 7, i & 3)))
    return time.perf_counter() - started
for line in sys.stdin:
    print(repr(loop()), flush=True)
"""


def interpolate(points: Sequence[Tuple[float, float]], at: float) -> float:
    """The piecewise-linear value of time-sorted ``(time, value)`` points
    at time ``at``; flat beyond the first and the last point."""
    times = [t for t, _ in points]
    i = bisect.bisect(times, at)
    if i == 0:
        return points[0][1]
    if i == len(points):
        return points[-1][1]
    (t0, v0), (t1, v1) = points[i - 1], points[i]
    return v0 + (v1 - v0) * (at - t0) / (t1 - t0)


class SpeedProbe:
    """The loop-timing child; ``maybe_sample`` between requests."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: One ``(midpoint time, slowdown)`` per sampling point.
        self.points: List[Tuple[float, float]] = []
        self.seconds_spent = 0.0
        self._last = float("-inf")
        self._child = subprocess.Popen(
            [sys.executable, "-c", _LOOP],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def maybe_sample(self) -> None:
        """Time the loop if ``INTERVAL_SECONDS`` passed since the last time."""
        if time.perf_counter() - self._last >= INTERVAL_SECONDS:
            self.sample()

    def sample(self) -> None:
        """Time the loop ``REPEATS`` times now."""
        started = time.perf_counter()
        timings = []
        for _ in range(REPEATS):
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            timings.append(float(self._child.stdout.readline()))
        self._last = time.perf_counter()
        self.seconds_spent += self._last - started
        self.samples += timings
        self.points.append(
            ((started + self._last) / 2, statistics.fmean(timings) / REFERENCE_SECONDS)
        )

    def slowdown(self) -> float:
        """Mean loop time over the reference: above 1 on a slow host."""
        return statistics.fmean(self.samples) / REFERENCE_SECONDS

    def slowdown_at(self, at: float) -> float:
        """The slowdown at ``perf_counter`` time ``at``, interpolated between
        the sampling points around it."""
        return interpolate(self.points, at)

    def close(self) -> None:
        """Stop the child and wait for it (killed if it does not exit)."""
        self._child.stdin.close()
        try:
            self._child.wait(10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()
