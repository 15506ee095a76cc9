"""Summary statistics for timed samples."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """ceil(p/100 * n), rounded first so 99.9% of 10000 is 9990, not 9991."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_values, p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail(values):
    """Highest LADDER percentile with at least MIN_BEYOND samples above it.

    Returns (p, value) or None when even the lowest rung lacks the samples.
    With n samples, nearest rank puts n - ceil(p/100 * n) samples beyond p.
    """
    xs = sorted(values)
    n = len(xs)
    for p in LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, nearest_rank(xs, p)
    return None


def median(values) -> float:
    return float(statistics.median(values))
