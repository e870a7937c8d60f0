"""Statistics and run-set comparison for the e2e benchmark.

Everything here is pure arithmetic over numbers the runs report, so the
self-tests can pin it without starting a stack.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence

#: ``BENCHMARK.json`` sits at the repository root, two levels above this file.
SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)

#: End-to-end metrics that are counts made by the program, not times: two
#: runs of one seed must agree on them exactly, whatever their bound says.
COUNT_METRICS = ("wire_bytes_per_op", "traffic_overhead_ratio")


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of *samples* (``fraction`` in 0..1)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def quartiles(values: Sequence[float]) -> "tuple[float, float]":
    """First and third quartile, the way the driver takes them."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def summarize(runs: Iterable[Mapping[str, float]]) -> Dict[str, Dict[str, float]]:
    """Median, quartiles, spread and sample count per metric over k runs."""
    columns: Dict[str, List[float]] = {}
    for run in runs:
        for name, value in run.items():
            columns.setdefault(name, []).append(float(value))
    summary = {}
    for name, values in columns.items():
        q1, q3 = quartiles(values)
        summary[name] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": spread(values),
            "n": len(values),
        }
    return summary


def worsening(metric: Mapping[str, object], first: float, second: float) -> float:
    """Share of *first* by which *second* is worse (negative = better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def compare_sets(
    end_to_end: Sequence[Mapping[str, object]],
    first: Sequence[Mapping[str, float]],
    second: Sequence[Mapping[str, float]],
) -> List[str]:
    """Disagreements between two sets of runs of one workload.

    *first* and *second* are the per-run metric dicts of the two sets, run
    ``i`` of each made with the same seed.  A timed metric disagrees when
    the set medians differ, in either direction, by more than the metric's
    bound; a count metric disagrees when any same-seed pair differs at all.
    """
    problems: List[str] = []
    if len(first) != len(second):
        return [f"sets have {len(first)} and {len(second)} runs"]
    for metric in end_to_end:
        name = str(metric["name"])
        a = [run[name] for run in first]
        b = [run[name] for run in second]
        if name in COUNT_METRICS:
            for index, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    problems.append(
                        f"{name}: run {index} counted {x!r} then {y!r} for one seed"
                    )
            continue
        med_a, med_b = statistics.median(a), statistics.median(b)
        gap = max(worsening(metric, med_a, med_b), worsening(metric, med_b, med_a))
        if gap > float(metric["bound"]):
            problems.append(
                f"{name}: medians {med_a:.6g} and {med_b:.6g} differ by "
                f"{gap:.1%}, bound {float(metric['bound']):.0%}"
            )
    return problems
