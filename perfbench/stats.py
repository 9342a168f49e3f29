"""Percentile and sample-count rules used by every report.

A timing is reported as its median and the highest percentile that still
has at least MIN_TAIL samples beyond it; percentiles are nearest-rank, so
each reported value is one that was actually measured.
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank q-th percentile of n."""
    return n - max(math.ceil(q * n), 1) if n else 0


def tail_ok(n: int, q: float) -> bool:
    return tail_count(n, q) >= MIN_TAIL


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count, quartiles as statistics.quantiles gives them."""
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}

