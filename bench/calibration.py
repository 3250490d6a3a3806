"""A fixed pure-Python task that gauges how fast the machine runs right now.

The machine the benchmark runs on is shared: other tenants slow it, in
bursts and for minutes at a time, by half or more.  The slowdown is one of
instructions per cycle, not of time taken away (process CPU time grows as
much as wall time), and it slows this task and the hfroots pipeline in the
same proportion, to within a few percent.  So the benchmark times the task
next to each measurement and reports times scaled by `CAL_REF_S` over the
task's time: seconds on the reference machine with nothing else running.
The task depends on nothing in hfroots, so a change to the program cannot
change how it is scaled.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About the mean seconds `calibrate()` takes on an otherwise idle core of the
# reference machine: an Intel Xeon (family 6, model 207) KVM guest, Python 3.11.
CAL_REF_S = 0.0020


def _task() -> int:
    total = Fraction(0)
    for j in range(1, 100):
        total += Fraction(j * 7 % 13, j + 1)
    counts: dict[int, int] = {}
    for i in range(16000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return total.numerator % 7 + len(counts)


def calibrate() -> float:
    """Seconds one run of the fixed task takes now.

    The collector is paused so that objects the program left alive in this
    process do not add to the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate_for(seconds: float) -> list[float]:
    """Time the task repeatedly for about `seconds`, at least once."""
    times = [calibrate()]
    while sum(times) < seconds:
        times.append(calibrate())
    return times


def speed(times: list[float]) -> float:
    """How many reference seconds one second measured among calibrations
    that took `times` is worth.

    The mean, not the median: calibrations spread over a stretch of time
    sample how much the machine was slowed on average over that stretch.
    """
    return CAL_REF_S / statistics.fmean(times)
