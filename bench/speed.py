"""Scaling wall times to a nominal machine speed.

On a shared machine the speed seen by one process drifts by up to a factor
of two within seconds (an identical `scan` slice measured 243 ms to 467 ms in
one minute on a 2-core VM), which would swamp any regression bound.  The
benchmark therefore times a fixed reference kernel next to its ops and
reports each time scaled by NOMINAL_S / (kernel time measured around it):
the time the op would take on a machine where the kernel takes exactly
NOMINAL_S.  The kernel touches nothing from the library, so a change to the
library moves the scaled times exactly as it moves the wall times.  Raw wall
times are kept in each run's record.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter

NOMINAL_S = 0.001
INTERVAL_S = 0.02  # an op is preceded by a kernel sample once this long has passed
WINDOW = 3  # kernel samples on each side of an interval used to scale it
_ROUNDS = 1200


def _mix(a, b):
    return (a * 31 + b) % 1000003, a ^ b


def kernel_median(samples=WINDOW):
    return statistics.median(reference_kernel() for _ in range(samples))


def reference_kernel():
    """Seconds taken by a fixed piece of pure-Python work: small and big
    integer arithmetic, tuples, dict stores and function calls, the same
    kinds of work as exact rational computation."""
    start = perf_counter()
    table = {}
    a, b, big = 1, 2, 1
    for i in range(_ROUNDS):
        a, b = _mix(a, b)
        table[a % 97, i % 13] = (a, b)
        big = big * 1000003 + a
        if big.bit_length() > 512:
            big //= 1 << 256
    return perf_counter() - start


class SpeedLog:
    """Kernel samples taken through a run, to scale the times in between."""

    def __init__(self):
        self.times = []
        self.costs = []
        for _ in range(3):  # warm up
            reference_kernel()
        self.sample()

    def sample(self):
        self.times.append(perf_counter())
        self.costs.append(reference_kernel())

    def maybe_sample(self):
        if perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start, end):
        """Factor for an interval: NOMINAL_S over the median of the kernel
        samples from WINDOW before it to WINDOW after it.  A single sample can
        read several times too slow (an interrupt lands in it); the median
        ignores that while still following drift on the scale of seconds."""
        before = bisect_right(self.times, start) - 1
        after = bisect_right(self.times, end)
        window = self.costs[max(0, before - WINDOW + 1) : after + WINDOW]
        return NOMINAL_S / statistics.median(window)
