"""Tests for the DES kernel and metrics helpers."""

from __future__ import annotations

import pytest

from repro.simulation import EventLoop, boxplot_stats, bucket_by_time, fraction_above, percentile


def test_events_run_in_time_order():
    loop = EventLoop()
    seen = []
    loop.schedule(2.0, lambda: seen.append("late"))
    loop.schedule(1.0, lambda: seen.append("early"))
    loop.schedule_at(1.5, lambda: seen.append("middle"))
    loop.run_until()
    assert seen == ["early", "middle", "late"]
    assert loop.now == 2.0


def test_ties_run_in_schedule_order():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: seen.append("a"))
    loop.schedule(1.0, lambda: seen.append("b"))
    loop.run_until()
    assert seen == ["a", "b"]


def test_run_until_bound():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: seen.append(1))
    loop.schedule(5.0, lambda: seen.append(5))
    loop.run_until(2.0)
    assert seen == [1]
    assert loop.now == 2.0
    loop.run_until()
    assert seen == [1, 5]


def test_events_can_schedule_events():
    loop = EventLoop()
    seen = []

    def chain():
        seen.append(loop.now)
        if len(seen) < 3:
            loop.schedule(1.0, chain)

    loop.schedule(0.0, chain)
    loop.run_until()
    assert seen == [0.0, 1.0, 2.0]


def test_cannot_schedule_into_past():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run_until()
    with pytest.raises(ValueError):
        loop.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        loop.schedule(-1.0, lambda: None)


def test_percentile_interpolation():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 40.0
    assert percentile(values, 0.5) == pytest.approx(25.0)
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0


def test_boxplot_stats():
    stats = boxplot_stats([1.0, 2.0, 3.0, 10.0, 100.0])
    assert stats.minimum == 1.0
    assert stats.maximum == 100.0
    assert stats.median == 3.0
    assert stats.count == 5
    assert (stats.q1, stats.q3) == (2.0, 10.0)
    assert stats.mean == pytest.approx(23.2)


def test_boxplot_empty():
    assert boxplot_stats([]).count == 0


def test_bucket_by_time():
    samples = [(0.5, 1.0), (0.9, 2.0), (1.1, 3.0)]
    grouped = bucket_by_time(samples, 1.0)
    assert grouped == {0: [1.0, 2.0], 1: [3.0]}
    with pytest.raises(ValueError):
        bucket_by_time(samples, 0)


def test_fraction_above():
    assert fraction_above([1, 2, 3, 4], 2.5) == 0.5
    assert fraction_above([], 1.0) == 0.0
