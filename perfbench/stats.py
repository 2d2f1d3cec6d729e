"""Percentiles that refuse to over-read a small sample."""

from __future__ import annotations

import math
import statistics

#: A percentile above the median is reported only with at least this
#: many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n)


def percentile(values, q: float) -> float:
    """The nearest-rank ``q`` percentile; ``q == 0.5`` is the median.

    Raises ``ValueError`` for an empty sample, and for ``q`` above the
    median when fewer than :data:`MIN_BEYOND` samples lie beyond it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if q == 0.5:
        return statistics.median(ordered)
    beyond = samples_beyond(len(ordered), q)
    if q > 0.5 and beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond "
            f"it; need at least {MIN_BEYOND}"
        )
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values) -> tuple[float, float]:
    """``(q, value)``: the p90 where the sample supports it, else the
    median (``q`` 0.5)."""
    q = 0.9 if samples_beyond(len(values), 0.9) >= MIN_BEYOND else 0.5
    return q, percentile(values, q)
