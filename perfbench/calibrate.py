"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the speed of the CPU drifts within
and between runs: identical 15 s runs on the same inputs differed by 10%
to 25% in raw throughput.  While a workload runs, a timer interrupts it
every PERIOD_S and times one pass of `reference`, a fixed piece of pure
Python work of the kinds nil does: exact-fraction elimination as in the
simplex, and dicts and JSON as in the classifier and the CLI.  The mean
reference time over the run says how slow the host was; timings are
reported in calibrated seconds, with the run's clock rescaled so that the
reference takes NOMINAL_S.  The time spent in the interrupt is taken out
of the request it interrupted.

The garbage collector is off while the reference runs.  Otherwise a
collection set off by the reference's allocations walks the program's
heap, and its cost reads as a slow host.

Measured on a 2-core shared VM over three or four identical runs of each
workload, the calibrated throughput varied by about 2%, the raw one by
1-11%.  Timing the reference only between requests tracked the host worse
on xval, whose single request lasts seconds; the fraction part tracked
xval better and the dict part classify.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
NOMINAL_S = 0.001  # one pass of `reference` in calibrated seconds


def reference():
    """A fixed, deterministic mix of interpreter work; returns a checksum."""
    rows = [[Fraction((i * 7 + j * 3) % 5 + 1) for j in range(8)] for i in range(5)]
    for p in range(4):
        pivot = rows[p][p]
        rows[p] = [x / pivot for x in rows[p]]
        for i in range(5):
            if i != p:
                factor = rows[i][p]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[p])]
    counts = {}
    for i in range(800):
        counts[i % 100] = counts.get(i % 100, 0) + i
    return rows[0][-1].numerator % 1000 + len(json.dumps(sorted(counts.items())))


class Calibrator:
    """Times `reference` on demand, or on a timer while used as a context
    manager.  `spent_s` is the total time taken by the samples."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous_handler = None

    def sample(self):
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.spent_s += elapsed
        finally:
            if collecting:
                gc.enable()

    def _on_timer(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def scale(self):
        """Multiply a raw duration by this to get calibrated seconds."""
        if not self.samples:
            raise RuntimeError("no calibration samples were taken")
        return NOMINAL_S / (sum(self.samples) / len(self.samples))
