"""Shared statistical primitives for every meter in the repo.

One percentile implementation — numpy-style linear interpolation — used
by :class:`repro.objectmq.proxy.CallStats` and
:mod:`repro.simulation.metrics`.  Before this module existed the proxy
used nearest-rank and the simulation used linear interpolation, so the
two disagreed at small n (e.g. the median of ``[1, 2]`` was 2.0 on one
side and 1.5 on the other).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (numpy's default ``method='linear'``).

    *fraction* is in [0, 1] and is clamped; an empty sample returns 0.0.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    fraction = min(max(fraction, 0.0), 1.0)
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def safe_percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Percentile that degrades explicitly on degenerate samples.

    :func:`percentile` maps an empty series to ``0.0``, which is the right
    convention for a latency summary but poisonous for scrape-time
    reporting: a soak phase that saw no completions would record a
    "p99 latency" of zero and look infinitely fast.  This variant keeps
    the degenerate cases honest — ``None`` for an empty series, the lone
    sample itself (for any *fraction*) when there is exactly one — and
    otherwise defers to the shared implementation.
    """
    if not values:
        return None
    if len(values) == 1:
        return float(values[0])
    return percentile(values, fraction)
