"""Order statistics shared by the benchmark entry point and its tests."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles of query latency, highest first.  The tail
# reported is the highest one with at least MIN_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # rounded first, so that 99.9% of 10000 is rank 9990 and not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank `pct` percentile of n samples."""
    return n - _rank(n, pct)


def tail(values):
    """Highest percentile in TAIL_LADDER with at least MIN_BEYOND samples above it.

    Returns (percentile, value, sample count, samples beyond).  When even the
    lowest rung has too few samples beyond it, that rung is returned anyway,
    and the caller sees it from the count.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            break
    return pct, percentile(ordered, pct), n, beyond(n, pct)


def min_samples_for(pct: float) -> int:
    """Smallest sample count at which `pct` has MIN_BEYOND samples above it."""
    n = 1
    while beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0
