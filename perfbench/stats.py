"""Summary statistics for the benchmark's latency samples."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail_latency(samples):
    """The highest percentile that has at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count), or None when there are
    too few samples for any such percentile. The value is the sample
    with exactly TAIL_BEYOND larger-ranked samples after it; the
    percentile is the share of samples at or below it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
