"""Machine speed, so that timings survive the slow phases of a shared host.

On a shared VM the same pure-Python code runs up to 2x slower in phases that
last from seconds to minutes, and a whole run can fall into one.  So the
machine's speed is sampled with a fixed calibration loop of the kind of work
srgpq does (big-int bitset ``&`` and ``bit_count`` over adjacency rows, list
indexing) right before and after every timed block and, from a timer
signal, every ``INTERVAL_S`` within it.  The block's time, less the time
those samples took, scaled by ``REFERENCE_S`` over the median loop time is
the time the block would take at the reference speed.  A faster srgpq
moves the scaled time as much as the raw one; only the machine's speed
drops out.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from perfbench import inputs

# The loop's median time in a quiet phase of the 2-vCPU VM (CPython 3.11.7) the
# benchmark was tuned on.
REFERENCE_S = 0.0015
# Seconds between samples within a block; a sample takes about 1 % of that.
INTERVAL_S = 0.15
_ROWS = inputs.gq35_rows()


def loop_seconds() -> float:
    """Run the calibration loop once and return how long it took."""
    rows = _ROWS
    start = time.perf_counter()
    total = 0
    for _ in range(6):
        for row in rows:
            for other in rows:
                total += (row & other).bit_count()
    return time.perf_counter() - start


def sample() -> float:
    """The machine's current loop time: the median of three loops, so one interrupt cannot skew it."""
    return statistics.median(loop_seconds() for _ in range(3))


@dataclass
class Timing:
    """Seconds a block took, without the samples taken in it, and the median loop time."""

    seconds: float = 0.0
    loop: float = 0.0
    samples: int = 0

    @property
    def at_reference(self) -> float:
        return self.seconds * REFERENCE_S / self.loop


@contextmanager
def timed():
    """Time the block and sample the machine's speed around and within it."""
    timing, loops = Timing(), [sample()]
    state = {"on": True, "paused": 0.0}

    def tick(signum, frame):
        if state["on"]:
            start = time.perf_counter()
            loops.append(loop_seconds())
            state["paused"] += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        yield timing
    finally:
        state["on"] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    loops.append(sample())
    timing.seconds = elapsed - state["paused"]
    timing.loop = statistics.median(loops)
    timing.samples = len(loops)
