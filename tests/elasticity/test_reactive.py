"""Tests for the reactive provisioner and the combined policy (§4.3.2)."""

from __future__ import annotations

import pytest

from repro.elasticity import (
    CombinedProvisioner,
    PredictiveProvisioner,
    ReactiveProvisioner,
)
from repro.objectmq.introspection import PoolObservation


def obs(timestamp=0.0, rate=0.0, instances=1):
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


def predictor_with_constant(rate, period=100.0, day_length=400.0):
    policy = PredictiveProvisioner(period=period, day_length=day_length)
    policy.load_history([rate] * int(day_length / period))
    return policy


def test_deviation_band():
    reactive = ReactiveProvisioner()
    assert reactive.deviation_detected(lam_obs=121.0, lam_pred=100.0)  # +21%
    assert reactive.deviation_detected(lam_obs=79.0, lam_pred=100.0)  # -21%
    assert not reactive.deviation_detected(lam_obs=115.0, lam_pred=100.0)
    assert not reactive.deviation_detected(lam_obs=85.0, lam_pred=100.0)
    assert reactive.deviation_detected(lam_obs=1.0, lam_pred=0.0)


def test_no_deviation_endorses_current_pool():
    reactive = ReactiveProvisioner(predictive=predictor_with_constant(100.0))
    proposal = reactive.propose(obs(rate=105.0, instances=6))
    assert proposal == 6
    assert not reactive.last_triggered


def test_overload_triggers_resize_from_observed_rate():
    reactive = ReactiveProvisioner(predictive=predictor_with_constant(10.0))
    proposal = reactive.propose(obs(rate=140.0, instances=1))
    assert reactive.last_triggered
    assert proposal >= 7  # 140 req/s needs ~8 instances


def test_drop_triggers_scale_down():
    reactive = ReactiveProvisioner(predictive=predictor_with_constant(100.0))
    proposal = reactive.propose(obs(rate=10.0, instances=8))
    assert reactive.last_triggered
    assert proposal <= 2


def test_combined_prefers_reactive_when_triggered():
    predictive = predictor_with_constant(10.0)
    reactive = ReactiveProvisioner(predictive=predictive)
    combined = CombinedProvisioner(
        predictive, reactive, predictive_interval=100.0, reactive_interval=50.0
    )
    # Flash crowd: observed far above prediction.  The reactive policy
    # runs on its own cadence, so the first correction lands one
    # reactive interval after start-up (as in §5.3.3).
    first = combined.propose(obs(timestamp=0.0, rate=140.0, instances=1))
    assert first <= 2  # predictive-only allocation stands initially
    proposal = combined.propose(obs(timestamp=50.0, rate=140.0, instances=1))
    assert proposal >= 7


def test_combined_uses_predictive_between_reactive_corrections():
    predictive = predictor_with_constant(100.0)
    reactive = ReactiveProvisioner(predictive=predictive)
    combined = CombinedProvisioner(
        predictive, reactive, predictive_interval=100.0, reactive_interval=50.0
    )
    proposal = combined.propose(obs(timestamp=0.0, rate=100.0, instances=6))
    # In-band: predictive proposal rules (6 instances for 100 req/s).
    assert proposal == predictive.propose(obs(timestamp=0.0, rate=100.0))


def test_combined_respects_cadence():
    predictive = predictor_with_constant(100.0)
    reactive = ReactiveProvisioner(predictive=predictive)
    combined = CombinedProvisioner(
        predictive, reactive, predictive_interval=900.0, reactive_interval=300.0
    )
    first = combined.propose(obs(timestamp=0.0, rate=100.0, instances=6))
    # 100 s later: neither policy is due; the cached decision holds.
    second = combined.propose(obs(timestamp=100.0, rate=500.0, instances=6))
    assert second == first
    # 301 s later the reactive policy runs and corrects.
    third = combined.propose(obs(timestamp=301.0, rate=500.0, instances=6))
    assert third > first
