"""Percentile, median-of-k and the ``--check-repeat`` comparison."""

import statistics

import pytest

import measure

E2E = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "wire_bytes_per_op", "unit": "B", "better": "lower", "bound": 0.01},
]


def test_percentile_interpolates_linearly():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(samples, 0.0) == 1.0
    assert measure.percentile(samples, 1.0) == 4.0
    assert measure.percentile(samples, 0.5) == pytest.approx(2.5)
    assert measure.percentile(samples, 0.95) == pytest.approx(3.85)
    assert measure.percentile([7.0], 0.95) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 1.5)


def test_spread_is_the_drivers_interquartile_share():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert measure.spread([5.0]) == 0.0


def test_summarize_reports_median_of_k_with_quartiles_and_count():
    runs = [{"ops_per_s": v, "op_p50_ms": 1.0} for v in (100.0, 90.0, 400.0, 110.0, 105.0)]
    summary = measure.summarize(runs)
    assert summary["ops_per_s"]["median"] == 105.0  # the 400 outlier does not move it
    assert summary["ops_per_s"]["n"] == 5
    assert summary["ops_per_s"]["q1"] < 105.0 < summary["ops_per_s"]["q3"]
    assert summary["op_p50_ms"]["spread"] == 0.0


def test_worsening_follows_the_metric_direction():
    higher, lower = E2E[0], E2E[1]
    assert measure.worsening(higher, 100.0, 90.0) == pytest.approx(0.10)
    assert measure.worsening(higher, 100.0, 110.0) == pytest.approx(-0.10)
    assert measure.worsening(lower, 2.0, 2.2) == pytest.approx(0.10)


def _runs(rates, p50s, wire):
    return [
        {"ops_per_s": r, "op_p50_ms": p, "wire_bytes_per_op": w}
        for r, p, w in zip(rates, p50s, wire)
    ]


def test_compare_sets_accepts_medians_within_the_bounds():
    first = _runs([100, 102, 98], [2.0, 2.1, 1.9], [1296.0] * 3)
    second = _runs([95, 108, 104], [2.1, 2.0, 2.15], [1296.0] * 3)
    assert measure.compare_sets(E2E, first, second) == []


def test_compare_sets_flags_a_timed_metric_either_way_round():
    slow = _runs([100, 100, 100], [2.0] * 3, [1296.0] * 3)
    fast = _runs([120, 121, 119], [2.0] * 3, [1296.0] * 3)
    for a, b in ((slow, fast), (fast, slow)):
        problems = measure.compare_sets(E2E, a, b)
        assert len(problems) == 1 and problems[0].startswith("ops_per_s")


def test_compare_sets_requires_counts_to_match_exactly_per_seed():
    first = _runs([100] * 3, [2.0] * 3, [1296.0, 1296.0, 1296.0])
    # 0.08 % off: far inside the 1 % bound, still a disagreement for a count.
    second = _runs([100] * 3, [2.0] * 3, [1296.0, 1297.0, 1296.0])
    problems = measure.compare_sets(E2E, first, second)
    assert problems == ["wire_bytes_per_op: run 1 counted 1296.0 then 1297.0 for one seed"]


def test_compare_sets_rejects_sets_of_different_size():
    first = _runs([100] * 3, [2.0] * 3, [1296.0] * 3)
    assert measure.compare_sets(E2E, first, first[:2])
