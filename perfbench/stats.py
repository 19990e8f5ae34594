"""Arithmetic the benchmark reports with: medians, percentiles, self time.

Kept free of any import from the simulator so the benchmark's own tests
can check it in isolation.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile counts only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return math.ceil(round(p / 100.0 * n, 9))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[max(_rank(len(ordered), p), 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` nearest-rank samples lie strictly above percentile ``p``."""
    return n - _rank(n, p)


def fold_child(covered: float, cover_end: float, start: float, end: float):
    """Add one child interval to a parent's covered time.

    Children must arrive ordered by start time, as they do on one thread.
    The part of ``[start, end)`` already covered by earlier children (which
    all end by ``cover_end``) is counted once.  Returns the new
    ``(covered, cover_end)``.
    """
    if end > cover_end:
        covered += end - max(start, cover_end)
        cover_end = end
    return covered, cover_end

