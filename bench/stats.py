"""Percentiles and medians as the benchmark reports them."""

import math
from typing import Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the reported value is one outlier, not a tail.
MIN_SAMPLES_BEYOND = 10

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _rank(count: int, pct: float) -> int:
    """1-based nearest-rank index of the `pct` percentile among `count` samples."""
    return min(count, max(1, math.ceil(count * pct / 100.0 - 1e-9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least `pct` percent
    of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of `count` samples lie strictly beyond the `pct` percentile."""
    return count - _rank(count, pct) if count else 0


def tail_percentile(count: int, candidates: Sequence[float] = TAIL_CANDIDATES) -> float:
    """The highest candidate percentile with >= MIN_SAMPLES_BEYOND samples
    beyond it, or 50 when no candidate has that many."""
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return 50.0
