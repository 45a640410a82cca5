"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

from typing import Optional, Sequence

#: Percentiles a tail latency may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) by linear interpolation between order
    statistics (the "inclusive" method of :func:`statistics.quantiles`)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_percentile(samples: int, min_beyond: int = 10) -> Optional[float]:
    """The highest percentile in :data:`TAIL_PERCENTILES` that has at least
    ``min_beyond`` samples above it, or ``None`` when even the median has not.

    With ``n`` samples, ``n * (1 - p/100)`` of them lie beyond the ``p``-th
    percentile, so p95 needs 200 samples and p99 needs 1000.
    """
    for percentile in TAIL_PERCENTILES:
        # Rounded so that float error in 1 - p/100 cannot drop an exact case.
        if round(samples * (100.0 - percentile) / 100.0, 9) >= min_beyond:
            return percentile
    return None
