"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(samples, q):
    """The q-th percentile (0 < q < 100) by the nearest-rank method.

    Returns None unless at least MIN_BEYOND samples lie strictly above the
    rank it picks, so a tail figure is never read off a handful of points.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2
