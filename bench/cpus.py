"""Run on whichever allowed CPU is currently fastest.

Each CPU of a virtual machine whose host cores are shared slows down, by up to
2x, and recovers on its own, for seconds at a time.  Contention only ever
slows the program, so running on the quicker CPU measures more of the
program's own cost.  Only this process's affinity is changed.
"""

from __future__ import annotations

import os
import time


def _probe() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(5000):
        s += i * i % 7
    return time.perf_counter() - start


def fastest_cpu(cpus) -> int:
    """The CPU among `cpus` that runs a short loop fastest (best of three)."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        took = min(_probe() for _ in range(3))
        if best is None or took < best[0]:
            best = (took, cpu)
    return best[1]


class CpuPicker:
    """Moves the process to the fastest CPU, at most every quarter second.

    Called between ops, outside any timed interval.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -self.INTERVAL_S

    def __call__(self):
        now = time.perf_counter()
        if now - self.last < self.INTERVAL_S:
            return
        os.sched_setaffinity(0, {fastest_cpu(self.cpus)})
        self.last = time.perf_counter()
