"""Small statistics helpers of the end-to-end benchmark.

Kept free of any ``repro`` import so the self-tests (``selftest.py``) run
without the package on the path.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` by linear interpolation.

    Uses the "inclusive" definition (NumPy's default): position
    ``fraction * (n - 1)`` in the sorted values, interpolated between the two
    neighbours.  An empty input has no percentile and returns NaN, which the
    caller must treat as "not measured"; a single value is every percentile.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction!r}")
    if not values:
        return math.nan
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values: Sequence[float]) -> float:
    """The 0.5 :func:`percentile` (NaN for an empty input)."""
    return percentile(values, 0.5)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles``
    (its default "exclusive" method, ``n=4``) computes them.

    This is the definition the repeat mode reports spreads with.  Fewer than
    two values have no spread: the single value (or NaN) is returned three
    times.
    """
    if len(values) < 2:
        value = float(values[0]) if values else math.nan
        return value, value, value
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def job_gaps(events: Iterable[tuple[str, float]], starts: Mapping[str, float]) -> list[float]:
    """Waits between consecutive accepted samples of the same job.

    ``events`` are ``(job_id, timestamp)`` pairs in any interleaving, as the
    round-robin scheduler produces them; ``starts`` maps each job to the time
    it was started, which counts as the job's sample zero — an analyst waits
    for the first sample too.  Gaps are returned grouped by job, in time order
    within each job.
    """
    by_job: dict[str, list[float]] = {}
    for job_id, stamp in events:
        by_job.setdefault(job_id, []).append(stamp)
    gaps: list[float] = []
    for job_id, stamps in by_job.items():
        previous = starts[job_id]
        for stamp in sorted(stamps):
            gaps.append(stamp - previous)
            previous = stamp
    return gaps


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
