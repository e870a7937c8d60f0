"""Tests for the base provisioning policies (fixed / utilization / queue depth)."""

from __future__ import annotations

import pytest

from repro.objectmq.introspection import PoolObservation
from repro.objectmq.provisioner import (
    FixedProvisioner,
    QueueDepthProvisioner,
    UtilizationProvisioner,
)


def obs(instances=1, rate=0.0, service=0.05, queue_depth=0):
    return PoolObservation(
        oid="svc",
        timestamp=0.0,
        instance_count=instances,
        queue_depth=queue_depth,
        arrival_rate=rate,
        interarrival_variance=0.0,
        mean_service_time=service,
        service_time_variance=0.0,
    )


def test_fixed_provisioner_constant():
    policy = FixedProvisioner(3)
    assert policy.propose(obs(instances=1)) == 3
    assert policy.propose(obs(instances=10)) == 3


def test_fixed_rejects_negative():
    with pytest.raises(ValueError):
        FixedProvisioner(-1)


def test_utilization_scales_up_on_overload():
    policy = UtilizationProvisioner(high=0.8, low=0.3)
    # rho = 30 * 0.05 / 1 = 1.5 > 0.8
    assert policy.propose(obs(instances=1, rate=30.0)) == 2


def test_utilization_scales_down_when_idle():
    policy = UtilizationProvisioner(high=0.8, low=0.3)
    # rho = 2 * 0.05 / 4 = 0.025 < 0.3
    assert policy.propose(obs(instances=4, rate=2.0)) == 3


def test_utilization_holds_in_band():
    policy = UtilizationProvisioner(high=0.8, low=0.3)
    # rho = 10 * 0.05 / 1 = 0.5
    assert policy.propose(obs(instances=1, rate=10.0)) == 1


def test_utilization_never_below_one():
    policy = UtilizationProvisioner()
    assert policy.propose(obs(instances=1, rate=0.0)) == 1


def test_utilization_validates_thresholds():
    with pytest.raises(ValueError):
        UtilizationProvisioner(high=0.2, low=0.5)


def test_queue_depth_scales_with_backlog():
    policy = QueueDepthProvisioner(max_backlog_per_instance=10)
    # 45 queued at 10/instance -> needs 5 instances.
    assert policy.propose(obs(instances=2, queue_depth=45)) == 5


def test_queue_depth_holds_under_threshold():
    policy = QueueDepthProvisioner(max_backlog_per_instance=10)
    assert policy.propose(obs(instances=3, queue_depth=25)) == 3


def test_queue_depth_shrinks_when_idle():
    policy = QueueDepthProvisioner(max_backlog_per_instance=10)
    assert policy.propose(obs(instances=4, queue_depth=0)) == 3
    assert policy.propose(obs(instances=1, queue_depth=0)) == 1


def test_queue_depth_validation():
    with pytest.raises(ValueError):
        QueueDepthProvisioner(max_backlog_per_instance=0)
    with pytest.raises(ValueError):
        QueueDepthProvisioner(shrink_fill=1.5)
