"""Host speed: a fixed piece of pure-Python and numpy work, timed beside every measurement.

The benchmark shares a few cores of a host whose speed drifts by a fifth to
a half over tens of seconds, for interpreted and compiled code alike: raw
timings of one seed, run six times in a row, spread by 0.2-0.3 of their
median.  So every timing the benchmark reports is scaled to a host that runs
the reference in REFERENCE_S:

    adjusted = measured * REFERENCE_S / reference time beside the measurement

The reference calls no scramsey code, so a change to the package moves the
adjusted figures just as it moves the raw ones; the raw figures are printed
too.  Every benchmark process runs on one CPU, so the reference and the
measurement it scales share a core.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_S = 0.010  # about the reference's time at a quiet moment of the machine in NOTES.md
_ARRAY = np.random.default_rng(0).random((64, 4096))


def pin_to_one_cpu() -> int:
    """Keep this process and the processes it starts on one CPU; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_s() -> float:
    """Seconds the reference takes now: an integer loop, then elementwise numpy on 2 MiB."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(3):
        np.cos(_ARRAY) * _ARRAY
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to adjusted seconds, given the references around them."""
    return REFERENCE_S / ((before + after) / 2.0)
