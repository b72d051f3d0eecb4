"""Order statistics used by the benchmark's report."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, highest first.  The median is not one: a
# tail that reads the same as ``latency_p50_ms`` would hide a slow tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_latency(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest candidate
    percentile that has at least ten samples strictly beyond it.  Runs of
    slow ops have too few samples for any candidate (p75 needs 38);
    then the slowest op is reported, as percentile 100 with none beyond."""
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= MIN_BEYOND:
            return value, p, beyond
    return max(values), 100.0, 0


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
