"""Job times scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same code runs up to half again as slow for seconds to minutes at a time,
with no steal time to show for it, because the neighbours compete for cache
and memory bandwidth rather than for the cores.  A 25-second run can fall
entirely into a slow phase, so no statistic over one run's jobs removes it.

A ``Stopwatch`` therefore cuts each timed job into segments of about
``SEGMENT_S`` seconds and times a fixed reference job at every cut.  Each
segment's time is divided by the host's slowness at its two ends (the
geometric mean of the two samples), which gives the job's time on the host
that ran the reference in ``REFERENCE_S``.  The reference time itself is
left out of both the raw and the scaled time.

The reference has one part for each kind of work the program does:
interpreter overhead, element-wise arithmetic on an array larger than the
L2 cache (the program's distance and kernel matrices are 3 to 8 MB), and
small LAPACK factorizations.  A sample's slowness is the geometric mean of
the three parts' slowness, so each kind counts the same.  On the 2-vCPU VM
this was tuned on, that mean tracked each workload's own slowdown better
than any one part did: a slow phase hurts cache-bound code and interpreter
code by different amounts.  The reference uses only Python, numpy and
scipy, never ``hybridrbf``, so no change to the program can change it.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np
import scipy.linalg as sla

# Seconds of each part of the reference job on the reference host: a
# 2-vCPU x86-64 VM with Python 3.11 and OpenBLAS on one thread, in its fast
# phases (about the fastest of 300 samples).
REFERENCE_S = {"python": 0.012, "arrays": 0.0085, "lapack": 0.011}

# Program time between two samples; with a 30 to 50 ms sample a tenth to a
# sixth of a run goes to sampling.
SEGMENT_S = 0.3


class HostSpeed:
    """Times the reference job; inputs are fixed, so every sample does the same work."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._vector = rng.random(600_000)
        self._matrix = rng.standard_normal((160, 160)) + 160.0 * np.eye(160)

    def _python(self) -> float:
        table = {}
        for i in range(80_000):
            table[i % 97] = table.get(i % 97, 0) + i * 0.5
        return sum(table.values())

    def _arrays(self) -> float:
        v = self._vector
        return float(np.sum(np.exp(-v * v) * np.sqrt(v)))

    def _lapack(self) -> float:
        total = 0.0
        for _ in range(50):
            lu, _piv = sla.lu_factor(self._matrix, check_finite=False)
            total += float(lu[-1, -1])
        return total

    def part_seconds(self) -> dict[str, float]:
        """Wall seconds of each part of one run of the reference job."""
        seconds = {}
        for name, part in (("python", self._python), ("arrays", self._arrays),
                           ("lapack", self._lapack)):
            start = perf_counter()
            part()
            seconds[name] = perf_counter() - start
        return seconds

    def sample(self) -> float:
        """How many times slower than the reference host the host runs now.

        The geometric mean of the three parts' slowness gives each kind of
        work the same weight, whatever its share of the reference's time.
        """
        parts = self.part_seconds()
        return math.exp(
            sum(math.log(parts[name] / REFERENCE_S[name]) for name in REFERENCE_S)
            / len(REFERENCE_S)
        )


def host_factor(before: float, after: float) -> float:
    """Slowness of the host between two samples."""
    return math.sqrt(before * after)


class Stopwatch:
    """Raw and reference-speed seconds of a job.

    While running, an interval timer (SIGALRM) ends a segment about every
    ``SEGMENT_S`` seconds; ``lap`` ends one at a chosen point, such as the
    end of a search.  The handler runs between two Python bytecodes of the
    main thread, never inside a numpy or LAPACK call, so the program's
    numbers do not change.  Without a ``HostSpeed`` nothing is sampled, no
    timer is set and the two times are equal; traced jobs and tests use it
    that way.
    """

    def __init__(self, speed: HostSpeed | None = None):
        self.speed = speed
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._sample = 0.0
        self._mark = 0.0
        self._running = False
        self._in_lap = False
        self._installed = False
        self._previous_handler = None

    def start(self) -> None:
        self.raw_s = self.scaled_s = 0.0
        if self.speed is not None:
            if not self._installed:
                self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
                self._installed = True
            self._sample = self.speed.sample()
            self._running = True
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
        self._mark = perf_counter()

    def lap(self) -> None:
        """End the current segment here and start the next one."""
        self._in_lap = True
        elapsed = perf_counter() - self._mark
        self.raw_s += elapsed
        if self.speed is None:
            self.scaled_s += elapsed
        else:
            sample = self.speed.sample()
            self.scaled_s += elapsed / host_factor(self._sample, sample)
            self._sample = sample
        self._in_lap = False
        self._mark = perf_counter()

    def stop(self) -> None:
        """End the last segment and the timer."""
        if self.speed is not None:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.lap()

    def close(self) -> None:
        """Stop the timer and give SIGALRM back to its previous handler."""
        self._running = False
        if self._installed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
            self._installed = False

    def _on_alarm(self, signum, frame) -> None:
        # A late alarm after stop() is dropped; one inside lap() only re-arms.
        if not self._running:
            return
        if not self._in_lap:
            self.lap()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
