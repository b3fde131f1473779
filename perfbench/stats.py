"""Percentiles under the ten-samples-beyond rule.

A timing is reported as its median and the highest percentile that
still has at least :data:`MIN_BEYOND` samples above it, so a tail
figure never rests on one or two unlucky requests. ``p95`` needs 200
samples, ``p75`` needs 40 and the median needs 20.
"""

from __future__ import annotations

import math
from typing import Iterable, List

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def beyond(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie above the ``p``-th
    percentile's rank."""
    return n - math.ceil(p / 100.0 * n)


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples support reporting the ``p``-th
    percentile."""
    return n > 0 and beyond(n, p) >= MIN_BEYOND


def min_samples(p: float) -> int:
    """The fewest samples that support the ``p``-th percentile."""
    n = 1
    while not supports(n, p):
        n += 1
    return n


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between the
    closest ranks (``nan`` for no samples)."""
    ordered: List[float] = sorted(values)
    if not ordered:
        return math.nan
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was counted."""
    return part / whole if whole else 0.0
