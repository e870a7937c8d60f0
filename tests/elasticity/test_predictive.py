"""Tests for the predictive provisioner (§4.3.1)."""

from __future__ import annotations

import pytest

from repro.elasticity import PredictiveProvisioner, percentile
from repro.objectmq.introspection import PoolObservation


def obs(timestamp, rate=0.0, instances=1):
    return PoolObservation(
        oid="svc",
        timestamp=timestamp,
        instance_count=instances,
        queue_depth=0,
        arrival_rate=rate,
        interarrival_variance=0.0,
        mean_service_time=0.05,
        service_time_variance=200e-6,
    )


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.95) == 5.0
    assert percentile(values, 0.0) == 1.0
    assert percentile([], 0.5) == 0.0


def test_load_history_maps_periods_across_days():
    policy = PredictiveProvisioner(period=100.0, day_length=400.0)
    # Two days of 4 periods each.
    policy.load_history([1, 2, 3, 4, 10, 20, 30, 40], start_time=0.0)
    # Period 0 history = [1, 10]; 95th percentile (nearest rank) = 10.
    assert policy.predicted_rate(0.0) == 10
    assert policy.predicted_rate(150.0) == 20
    # Day wraps: timestamp 550 (= 150 within the 400s day) is period 1.
    assert policy.predicted_rate(550.0) == 20


def test_prediction_sized_with_capacity_model():
    policy = PredictiveProvisioner(period=100.0, day_length=400.0)
    policy.load_history([100.0, 0.0, 0.0, 0.0], start_time=0.0)
    peak_periods = policy.propose(obs(timestamp=50.0))
    off_peak = policy.propose(obs(timestamp=250.0))
    assert peak_periods >= 5
    assert off_peak == 0
    assert policy.last_prediction == 0.0


def test_period_offset_fools_the_predictor():
    """The misprediction experiment (Fig 8c): read the wrong hour."""
    honest = PredictiveProvisioner(period=100.0, day_length=400.0)
    fooled = PredictiveProvisioner(period=100.0, day_length=400.0, period_offset=2)
    history = [100.0, 0.0, 5.0, 0.0]
    honest.load_history(history)
    fooled.load_history(history)
    assert honest.predicted_rate(0.0) == 100.0
    # Offset by 2 periods: reads period 2's history instead.
    assert fooled.predicted_rate(0.0) == 5.0


def test_observe_rate_extends_history_online():
    policy = PredictiveProvisioner(period=100.0, day_length=400.0)
    policy.observe_rate(0.0, 50.0)
    policy.observe_rate(400.0, 70.0)
    assert policy.predicted_rate(10.0) == 70.0  # p95 of [50, 70]


def test_monitored_service_time_used():
    policy = PredictiveProvisioner(period=100.0, day_length=400.0)
    policy.load_history([100.0, 100.0, 100.0, 100.0])
    baseline = policy.propose(obs(timestamp=0.0))
    slow = PredictiveProvisioner(period=100.0, day_length=400.0)
    slow.load_history([100.0, 100.0, 100.0, 100.0])
    slow_obs = PoolObservation(
        oid="svc",
        timestamp=0.0,
        instance_count=1,
        queue_depth=0,
        arrival_rate=0.0,
        interarrival_variance=0.0,
        mean_service_time=0.2,  # 4x slower servers
        service_time_variance=200e-6,
    )
    assert slow.propose(slow_obs) > baseline
