"""Calibration: a fixed piece of work that gauges the host's speed while
the program runs.

The host this benchmark runs on shares its cores with other machines and
swings between a fast and a slow state, about 1.7x apart. The state flips
within a fraction of a second, and slow spells also last for whole
minutes, so neither one long run nor readings taken between ops tell how
fast the host was while an op ran. A `Sampler` therefore runs a short
kernel on a wall-clock timer, every PERIOD seconds, from a signal handler
in the benchmark's own thread: the handler runs between two bytecodes of
whatever the program is doing, so the samples fall inside the ops. The
kernel's mean time over an op says how slow the host was during it. The
time the handler takes is subtracted from the op's wall time.

The kernel mixes interpreted loops, allocation-heavy dict and set work and
small numpy operations, as the program's hot paths do, and calls nothing
of nswforge, so it reads the same before and after any change to the
program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.025  # seconds of wall time between samples
# Kernel seconds that define one reference second: about the kernel's time
# on a 2-core Xeon host in its fast state. Fixed, so that runs at any time
# and on any commit compare.
REF_S = 0.00025
CLIP = 3.0  # samples beyond CLIP x the median are preemptions, cut to it

_TABLE = [float(i % 17) + 1.0 for i in range(64)]
_RNG = np.random.default_rng(0)
_ARR = _RNG.random(512)
_MAT = _RNG.random((24, 24))


def kernel() -> float:
    """About 0.25 ms of work in three parts, each sensitive to a different
    kind of contention: interpreted arithmetic and list indexing; dicts,
    frozensets and sorting, which allocate; numpy ufuncs, argsort and a
    small matrix product."""
    best = -1.0
    table = _TABLE
    for a in range(300):
        prod = 1.0
        for i in range(3):
            prod *= table[(a * i + i) & 63]
        if prod > best:
            best = prod
    for r in range(6):
        bundles = {}
        for i in range(24):
            bundles[(i * 7 + r) % 19] = frozenset(range(i % 5))
        best += sum(len(v) for _, v in sorted(bundles.items(), key=lambda kv: len(kv[1])))
    for _ in range(6):
        y = np.exp(-_ARR) * _ARR + np.sqrt(_ARR)
        best += float(np.argsort(y)[3]) + float((_MAT @ _MAT[:, :4]).sum())
    return best


class Sampler:
    """Context manager that samples the kernel every PERIOD seconds.

    Each sample runs the kernel twice and times only the second run. The
    first run brings the kernel's code and data back into the caches the
    program has just used, so that a sample reads the host and not how
    much cache the program touches.
    """

    def __init__(self):
        self.starts: list[float] = []  # when each sample began
        self.spent: list[float] = []  # handler seconds of each sample
        self.seconds: list[float] = []  # timed kernel run of each sample
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.spent.append(end - start)
        self.seconds.append(end - timed)

    def __enter__(self) -> Sampler:
        for _ in range(20):  # warm the kernel
            kernel()
        self._tick(None, None)  # so that a run never lacks a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _slice(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start),
                     bisect.bisect_left(self.starts, end))

    def window(self, start: float, end: float) -> list[float]:
        """Kernel times of the samples taken between start and end."""
        return self.seconds[self._slice(start, end)]

    def spent_in(self, start: float, end: float) -> float:
        """Seconds the handler took between start and end."""
        return sum(self.spent[self._slice(start, end)])

    def clipped_mean(self, samples: list[float]) -> float:
        """Mean kernel time, with preemption outliers cut to CLIP x the
        median of the whole run; the whole run's if `samples` is empty."""
        cap = CLIP * statistics.median(self.seconds)
        return statistics.fmean(min(s, cap) for s in samples or self.seconds)
