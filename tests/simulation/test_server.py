"""Tests for the G/G/c server-pool simulation."""

from __future__ import annotations

import random

import pytest

from repro.simulation import (
    EventLoop,
    ServerPool,
    ServiceTimeDistribution,
    poisson_arrival_times,
)


def make_pool(capacity=1, mean=0.05, variance=0.0, spawn_delay=0.0):
    loop = EventLoop()
    dist = ServiceTimeDistribution(mean=mean, variance=variance, rng=random.Random(1))
    pool = ServerPool(loop, dist, initial_capacity=capacity, spawn_delay=spawn_delay)
    return loop, pool


def test_service_distribution_moments():
    dist = ServiceTimeDistribution(mean=0.05, variance=200e-6, rng=random.Random(2))
    samples = [dist.sample() for _ in range(20_000)]
    mean = sum(samples) / len(samples)
    variance = sum((s - mean) ** 2 for s in samples) / len(samples)
    assert mean == pytest.approx(0.05, rel=0.03)
    assert variance == pytest.approx(200e-6, rel=0.10)
    assert all(s > 0 for s in samples)


def test_deterministic_service_when_variance_zero():
    dist = ServiceTimeDistribution(mean=0.1, variance=0.0)
    assert dist.sample() == 0.1


def test_distribution_validation():
    with pytest.raises(ValueError):
        ServiceTimeDistribution(mean=0.0)
    with pytest.raises(ValueError):
        ServiceTimeDistribution(mean=0.1, variance=-1.0)


def test_single_server_sequential_service():
    loop, pool = make_pool(capacity=1, mean=1.0)
    loop.schedule_at(0.0, pool.arrive)
    loop.schedule_at(0.0, pool.arrive)
    loop.run_until()
    assert pool.total_completed == 2
    first, second = pool.completed
    assert first.response_time == pytest.approx(1.0)
    assert second.response_time == pytest.approx(2.0)  # waited behind first
    assert second.started_at - second.arrived_at == pytest.approx(1.0)


def test_two_servers_parallel_service():
    loop, pool = make_pool(capacity=2, mean=1.0)
    loop.schedule_at(0.0, pool.arrive)
    loop.schedule_at(0.0, pool.arrive)
    loop.run_until()
    for record in pool.completed:
        assert record.response_time == pytest.approx(1.0)


def test_scale_up_drains_queue():
    loop, pool = make_pool(capacity=1, mean=1.0)
    for _ in range(4):
        loop.schedule_at(0.0, pool.arrive)
    loop.schedule_at(0.5, lambda: pool.set_capacity(4))
    loop.run_until()
    # After the scale-up at t=0.5, the three queued jobs start together.
    finish_times = sorted(r.completed_at for r in pool.completed)
    assert finish_times[0] == pytest.approx(1.0)
    assert finish_times[1] == pytest.approx(1.5)
    assert finish_times[3] == pytest.approx(1.5)


def test_spawn_delay_postpones_capacity():
    loop, pool = make_pool(capacity=1, mean=1.0, spawn_delay=2.0)
    for _ in range(2):
        loop.schedule_at(0.0, pool.arrive)
    loop.schedule_at(0.0, lambda: pool.set_capacity(2))
    # capacity=2 requested at t=0 but effective at t=2: the queued job
    # starts at min(first completion=1.0, activation=2.0) = 1.0 anyway.
    loop.run_until()
    assert pool.capacity == 2


def test_graceful_scale_down():
    loop, pool = make_pool(capacity=2, mean=1.0)
    loop.schedule_at(0.0, pool.arrive)
    loop.schedule_at(0.0, pool.arrive)
    loop.schedule_at(0.1, lambda: pool.set_capacity(1))
    loop.schedule_at(0.2, pool.arrive)  # must wait for a slot
    loop.run_until()
    assert pool.total_completed == 3
    last = max(pool.completed, key=lambda r: r.completed_at)
    # Third job starts only after a busy server frees *and* capacity
    # allows (busy < 1): starts at t=1.0, finishes at 2.0.
    assert last.completed_at == pytest.approx(2.0)


def test_utilization_governs_waiting():
    """Sanity: an overloaded pool builds queue, an underloaded one doesn't."""
    loop, pool = make_pool(capacity=1, mean=0.05)
    arrivals = poisson_arrival_times([30] * 20, rng=random.Random(3))  # rho=1.5
    for when in arrivals:
        loop.schedule_at(when, pool.arrive)
    loop.run_until()
    overloaded_p95 = sorted(r.response_time for r in pool.completed)[
        int(0.95 * len(pool.completed))
    ]

    loop2, pool2 = make_pool(capacity=4, mean=0.05)
    for when in arrivals:
        loop2.schedule_at(when, pool2.arrive)
    loop2.run_until()
    healthy_p95 = sorted(r.response_time for r in pool2.completed)[
        int(0.95 * len(pool2.completed))
    ]
    assert overloaded_p95 > 10 * healthy_p95


def test_poisson_arrival_times_counts_and_order():
    times = poisson_arrival_times([2, 0, 3], rng=random.Random(4))
    assert len(times) == 5
    assert times == sorted(times)
    assert sum(1 for t in times if 0 <= t < 1) == 2
    assert sum(1 for t in times if 2 <= t < 3) == 3


def test_on_completion_callback():
    loop, pool = make_pool(capacity=1, mean=0.5)
    seen = []
    pool.on_completion = seen.append
    loop.schedule_at(0.0, pool.arrive)
    loop.run_until()
    assert len(seen) == 1
    assert seen[0].response_time == pytest.approx(0.5)
