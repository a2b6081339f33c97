"""Order statistics for reporting latencies."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# Percentiles considered for the tail, lowest first.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank, computed exactly (0.999 * 10000 is not 9990 in
    binary floating point)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int] | None:
    """The highest percentile on :data:`LADDER` that has at least
    :data:`MIN_BEYOND` samples beyond it, as ``(percentile, value, n)``;
    None when even the median has fewer than that many samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in LADDER:
        rank = _rank(pct, n)
        if n - rank >= MIN_BEYOND:
            best = (pct, ordered[rank - 1], n)
    return best
