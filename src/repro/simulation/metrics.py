"""Metrics helpers: percentiles, boxplot statistics, time bucketing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

# One percentile implementation for the whole stack (numpy-style linear
# interpolation); re-exported here for the simulation layer's callers.
from repro.telemetry.stats import percentile

__all__ = [
    "BoxplotStats",
    "boxplot_stats",
    "bucket_by_time",
    "fraction_above",
    "percentile",
]


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number summary drawn by the paper's boxplots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @property
    def skewness(self) -> float:
        """Bowley (quartile) skewness in [-1, 1]; >0 = right-skewed."""
        if self.iqr == 0:
            return 0.0
        return (self.q3 + self.q1 - 2 * self.median) / self.iqr


def boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    if not values:
        return BoxplotStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    ordered = sorted(values)
    return BoxplotStats(
        minimum=ordered[0],
        q1=percentile(ordered, 0.25),
        median=percentile(ordered, 0.50),
        q3=percentile(ordered, 0.75),
        maximum=ordered[-1],
        mean=sum(ordered) / len(ordered),
        count=len(ordered),
    )


def bucket_by_time(
    samples: Sequence[Tuple[float, float]], bucket: float
) -> Dict[int, List[float]]:
    """Group (timestamp, value) samples into fixed-width time buckets."""
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    grouped: Dict[int, List[float]] = {}
    for timestamp, value in samples:
        grouped.setdefault(int(timestamp // bucket), []).append(value)
    return grouped


def fraction_above(values: Sequence[float], threshold: float) -> float:
    """Fraction of samples exceeding *threshold* (SLA-violation rate)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v > threshold) / len(values)
