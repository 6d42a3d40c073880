"""Reference-speed sampling, so that timings do not follow the host's load.

The benchmark runs on a few virtual cores of a shared host. How fast the
same Python code runs there swings by 30 to 60% from one second to the
next, with the load of the host's other tenants, and the guest sees no
steal time for it. A fixed job timed over and over reads like this, and
so does every query: a run's median follows how much of the run fell in
slow periods, not the program.

A SpeedSampler runs a fixed pure-Python reference job from a SIGALRM
handler every INTERVAL_S seconds of wall time, on the CPU the benchmark
is pinned to, and records when it ran and how long it took. A timed
interval [a, b] is then reported as

    (b - a - reference time spent inside [a, b]) * reference_s / r

where r is the median reference time sampled in [a - HALO_S, b + HALO_S]
and reference_s is the fixed reference time of spec.json. That is the
interval's wall time at the speed where the reference job takes
reference_s: the job slows with the host's load as the program does, so
the ratio does not. The job is independent of the package, so a faster or
slower program moves the ratio in full.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

INTERVAL_S = 0.02
HALO_S = 0.05
MIN_SAMPLES = 5

_TABLE = list(range(64))


def reference_job() -> int:
    """Fixed interpreter work: integer arithmetic, dict and list traffic,
    a short sort. 0.3 to 0.5 ms on a 2.1 GHz x86-64 virtual core of a shared
    host under Python 3.11, depending on the host's load."""
    counts = {}
    acc = 0
    for i in range(1500):
        key = (i * 37) & 63
        counts[key] = counts.get(key, 0) + _TABLE[key]
        acc = (acc * 31 + i) % 1000003
    ordered = sorted(_TABLE, key=lambda v: (v * 13) % 64)
    return acc + ordered[0] + len(counts)


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts later, to one CPU, so
    that the reference job samples the CPU the measured work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_job()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _range(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)

    def stolen(self, a: float, b: float) -> float:
        """Reference time spent inside [a, b]."""
        lo, hi = self._range(a, b)
        return sum(self.durations[lo:hi])

    def local_reference(self, a: float, b: float) -> float:
        """Median reference time around [a, b]: the samples within HALO_S of
        it, widened to the nearest MIN_SAMPLES when there are fewer."""
        lo, hi = self._range(a - HALO_S, b + HALO_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts) or
                           a - self.starts[lo - 1] <= self.starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.durations[lo:hi])

    def scaled(self, a: float, b: float) -> float:
        """Seconds [a, b] would take at the reference speed."""
        return (b - a - self.stolen(a, b)) * self.reference_s / self.local_reference(a, b)

    def factor(self, a: float, b: float) -> float:
        """reference_s over the local reference time, to scale a duration
        measured elsewhere (in a child process) during [a, b]."""
        return self.reference_s / self.local_reference(a, b)
