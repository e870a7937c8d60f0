"""Integration tests: RemoteBroker fleet + Supervisor enforcement (§3.3-3.4)."""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro.mom import MessageBroker
from repro.objectmq import (
    Broker,
    CrashInjector,
    FixedProvisioner,
    RemoteBroker,
    Supervisor,
)
from repro.objectmq.naming import shard_oid
from repro.objectmq.provisioner import Provisioner
from repro.telemetry.control import (
    KIND_DECISION,
    KIND_SHUTDOWN,
    KIND_SPAWN,
    REASON_CRASH_REPAIR,
    REASON_SCALE_DOWN,
    REASON_SCALE_UP,
    DecisionJournal,
)
from repro.telemetry.http import OpsServer
from repro.telemetry.registry import REGISTRY


class Worker:
    """Trivial spawnable server object."""

    def __init__(self):
        self.calls = 0

    def work(self):
        self.calls += 1
        return "ok"


@pytest.fixture
def fleet():
    mom = MessageBroker()
    brokers = []
    rbrokers = []
    for _ in range(2):
        broker = Broker(mom)
        rbroker = RemoteBroker(broker)
        rbroker.register_factory("worker", Worker)
        rbroker.serve()
        brokers.append(broker)
        rbrokers.append(rbroker)
    sup_broker = Broker(mom)
    yield mom, rbrokers, sup_broker
    sup_broker.close()
    for rbroker in rbrokers:
        rbroker.stop()
    for broker in brokers:
        broker.close()
    mom.close()


def total_instances(rbrokers, oid="worker"):
    return sum(len(rb.instances_for(oid)) for rb in rbrokers)


def test_supervisor_spawns_to_desired_count(fleet):
    _mom, rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(3))
    record = supervisor.step()
    assert record.spawned == 3
    assert total_instances(rbrokers) == 3
    assert record.alive_brokers == 2


def test_supervisor_scales_down(fleet):
    _mom, rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(4))
    supervisor.step()
    assert total_instances(rbrokers) == 4
    supervisor.provisioner = FixedProvisioner(1)
    supervisor.min_instances = 1
    record = supervisor.step()
    assert record.removed == 3
    assert total_instances(rbrokers) == 1


def test_supervisor_respawns_after_crash(fleet):
    """The Fig 8(f) repair loop: crash -> census shortfall -> respawn."""
    _mom, rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(2))
    supervisor.step()
    assert total_instances(rbrokers) == 2

    injector = CrashInjector(rbrokers, "worker", period=1000.0)
    assert injector.crash_one() is not None
    assert total_instances(rbrokers) == 1

    record = supervisor.step()
    assert record.spawned == 1
    assert total_instances(rbrokers) == 2
    assert injector.crash_count == 1


def test_supervisor_clamps_to_max(fleet):
    _mom, rbrokers, sup_broker = fleet
    supervisor = Supervisor(
        sup_broker, "worker", FixedProvisioner(50), max_instances=5
    )
    supervisor.step()
    assert total_instances(rbrokers) == 5


def test_supervisor_clamps_to_min(fleet):
    _mom, rbrokers, sup_broker = fleet
    supervisor = Supervisor(
        sup_broker, "worker", FixedProvisioner(0), min_instances=3
    )
    record = supervisor.step()
    assert record.desired == 3
    assert total_instances(rbrokers) == 3


def test_supervisor_history_records(fleet):
    _mom, _rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(1))
    supervisor.step()
    supervisor.step()
    assert len(supervisor.history.records) == 2
    assert supervisor.history.records[0].desired == 1


def test_supervisor_background_loop(fleet):
    _mom, rbrokers, sup_broker = fleet
    supervisor = Supervisor(
        sup_broker, "worker", FixedProvisioner(2), control_interval=0.1
    )
    supervisor.start()
    try:
        deadline = time.monotonic() + 5.0
        while total_instances(rbrokers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert total_instances(rbrokers) == 2
    finally:
        supervisor.stop()


def test_spawned_instances_actually_serve(fleet):
    _mom, _rbrokers, sup_broker = fleet
    from repro.objectmq import Remote, remote_interface, sync_method

    @remote_interface
    class WorkerApi(Remote):
        @sync_method(timeout=2.0, retry=1)
        def work(self):
            ...

    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(2))
    supervisor.step()
    proxy = sup_broker.lookup("worker", WorkerApi)
    assert proxy.work() == "ok"


def test_observation_includes_instance_snapshots(fleet):
    _mom, _rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(2))
    supervisor.step()
    observation = supervisor.observe()
    assert observation.instance_count == 2
    assert len(observation.instances) == 2
    assert all(s.oid == "worker" for s in observation.instances)


def test_journal_records_decisions_and_spawns(fleet):
    _mom, _rbrokers, sup_broker = fleet
    journal = DecisionJournal()
    supervisor = Supervisor(
        sup_broker, "worker", FixedProvisioner(2), journal=journal
    )
    supervisor.step()

    (decision,) = journal.decisions()
    assert decision.data["policy"] == "fixed"
    assert decision.data["census"] == 0
    assert decision.data["desired"] == 2
    assert decision.data["alive_brokers"] == 2
    assert decision.data["reason"].strip()

    spawns = journal.events(KIND_SPAWN)
    assert len(spawns) == 2
    for spawn in spawns:
        assert spawn.data["reason"] == REASON_SCALE_UP
        assert spawn.data["decision_seq"] == decision.seq
        assert spawn.data["instance_id"]
        assert spawn.data["policy_reason"] == decision.data["reason"]


def test_journal_attributes_crash_repair(fleet):
    """Satellite of Fig 8(f): a mid-run crash must surface in the journal as
    a census drop followed by a replacement spawn tagged crash-repair."""
    _mom, rbrokers, sup_broker = fleet
    journal = DecisionJournal()
    supervisor = Supervisor(
        sup_broker, "worker", FixedProvisioner(2), journal=journal
    )
    supervisor.step()
    assert total_instances(rbrokers) == 2

    injector = CrashInjector(rbrokers, "worker", period=1000.0)
    assert injector.crash_one() is not None
    assert total_instances(rbrokers) == 1

    record = supervisor.step()
    assert record.spawned == 1
    assert total_instances(rbrokers) == 2

    repair_decision = journal.decisions()[-1]
    assert repair_decision.data["census"] == 1
    assert repair_decision.data["census_shortfall"] == 1

    replacement = journal.events(KIND_SPAWN)[-1]
    assert replacement.data["reason"] == REASON_CRASH_REPAIR
    assert replacement.data["decision_seq"] == repair_decision.seq
    assert replacement.data["policy_reason"].strip()


def test_journal_records_scale_down_with_instance_ids(fleet):
    _mom, rbrokers, sup_broker = fleet
    journal = DecisionJournal()
    supervisor = Supervisor(
        sup_broker, "worker", FixedProvisioner(3), journal=journal
    )
    supervisor.step()
    supervisor.provisioner = FixedProvisioner(1)
    supervisor.step()
    assert total_instances(rbrokers) == 1

    shutdowns = journal.events(KIND_SHUTDOWN)
    assert len(shutdowns) == 2
    assert {s.data["reason"] for s in shutdowns} == {REASON_SCALE_DOWN}
    assert all(s.data["instance_id"] for s in shutdowns)
    assert {s.data["decision_seq"] for s in shutdowns} == {
        journal.decisions()[-1].seq
    }


def test_journal_growth_beyond_repair_splits_reasons(fleet):
    """When the pool both repairs a crash and scales up in one period, only
    the shortfall portion is attributed to crash repair."""
    _mom, rbrokers, sup_broker = fleet
    journal = DecisionJournal()
    supervisor = Supervisor(
        sup_broker, "worker", FixedProvisioner(2), journal=journal
    )
    supervisor.step()
    CrashInjector(rbrokers, "worker", period=1000.0).crash_one()

    supervisor.provisioner = FixedProvisioner(4)  # repair 1 + grow 2
    supervisor.step()
    assert total_instances(rbrokers) == 4

    last_seq = journal.decisions()[-1].seq
    spawns = [
        s for s in journal.events(KIND_SPAWN)
        if s.data["decision_seq"] == last_seq
    ]
    reasons = [s.data["reason"] for s in spawns]
    assert reasons == [REASON_CRASH_REPAIR, REASON_SCALE_UP, REASON_SCALE_UP]


def _supervisor_health(components):
    # Sources are listed in registration order: the newest is this test's.
    return [c for c in components if c["component"] == 'supervisor{oid="worker"}'][-1]


def test_supervisor_registers_health_probe(fleet):
    _mom, _rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(1))
    supervisor.step()
    probe = _supervisor_health(REGISTRY.health())
    assert probe["ok"]
    assert probe["detail"] == {
        "steps": 1.0,
        "running": 0.0,
        "pool_size": 1.0,
        "desired": 1.0,
        "queue_depth": 0.0,
        "lambda_obs": 0.0,
        "queue_redelivered": 0.0,
    }


def _series(labels):
    return {
        key for key in REGISTRY.snapshot()
        if key.startswith("supervisor_") and key.endswith(labels)
    }


_STEPPED = ("pool_size", "desired", "queue_depth", "lambda_obs", "queue_redelivered")


def test_a_collected_supervisor_leaves_no_series(fleet):
    """The control-plane series come from the Supervisor's registry source,
    so none outlives a Supervisor that was stopped and collected."""
    _mom, rbrokers, sup_broker = fleet
    for rbroker in rbrokers:
        rbroker.register_factory("collected", Worker)
    supervisor = Supervisor(sup_broker, "collected", FixedProvisioner(1))
    supervisor.step()
    assert len(_series('{oid="collected"}')) == 3 + len(_STEPPED)
    supervisor.stop()
    del supervisor
    gc.collect()
    assert _series('{oid="collected"}') == set()


def test_shard_supervisor_series_carry_the_shard_after_a_step(fleet):
    _mom, rbrokers, sup_broker = fleet
    oid = shard_oid("sharded", 1)
    for rbroker in rbrokers:
        rbroker.register_factory(oid, Worker)
    labels = f'{{oid="{oid}",shard="1"}}'
    supervisor = Supervisor(sup_broker, oid, FixedProvisioner(1))
    before = {f"supervisor_{name}{labels}" for name in ("up", "steps", "running")}
    assert _series(labels) == before
    supervisor.step()
    assert _series(labels) == before | {f"supervisor_{name}{labels}" for name in _STEPPED}


class _BlockingProvisioner(Provisioner):
    """Blocks every proposal until released: a control loop that hangs."""

    name = "blocking"

    def __init__(self):
        self.release = threading.Event()

    def propose(self, observation):
        self.release.wait(10.0)
        return 1


def test_stalled_supervisor_is_down(fleet):
    _mom, _rbrokers, sup_broker = fleet
    provisioner = _BlockingProvisioner()
    supervisor = Supervisor(sup_broker, "worker", provisioner, control_interval=0.02)
    provisioner.release.set()
    supervisor.step()
    provisioner.release.clear()
    supervisor.start()  # the loop's next step blocks in propose
    try:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            status, payload = OpsServer().health_payload()
            if not _supervisor_health(payload["components"])["ok"]:
                break
            time.sleep(0.02)
        assert status == 503
        assert _supervisor_health(payload["components"])["detail"]["running"] == 1.0
    finally:
        provisioner.release.set()
        supervisor.stop()


def test_supervisor_without_journal_unchanged(fleet):
    _mom, rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(2))
    assert supervisor.journal is None
    supervisor.step()
    assert total_instances(rbrokers) == 2


class _StubFleet:
    """Hands the Supervisor canned ObjectInfo wire snapshots."""

    def __init__(self, snapshots):
        self.snapshots = snapshots

    def get_object_info(self, oid):
        return [[s.to_wire() for s in self.snapshots]]

    def ping(self):
        return ["stub-broker"]


def _snapshot(instance, captured_at):
    from repro.objectmq.introspection import ObjectInfoSnapshot

    return ObjectInfoSnapshot(
        oid="worker",
        instance_id=instance,
        broker_id="stub-broker",
        processed=10,
        errors=0,
        busy=False,
        mean_service_time=0.05,
        service_time_variance=0.0,
        last_invocation_at=None,
        uptime=1.0,
        captured_at=captured_at,
    )


def test_supervisor_ignores_stale_snapshots(fleet):
    _mom, _rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(1))
    now = time.monotonic()
    supervisor.fleet = _StubFleet([
        _snapshot("fresh", captured_at=now),
        _snapshot("stale", captured_at=now - 60.0),
        _snapshot("unstamped", captured_at=None),
    ])
    observation = supervisor.observe()
    assert observation.instance_count == 1
    assert [s.instance_id for s in observation.instances] == ["fresh"]


def test_supervisor_live_snapshots_are_fresh(fleet):
    """Snapshots polled from a live fleet pass the default horizon."""
    _mom, _rbrokers, sup_broker = fleet
    supervisor = Supervisor(sup_broker, "worker", FixedProvisioner(2))
    supervisor.step()
    observation = supervisor.observe()
    assert observation.instance_count == 2
    assert all(s.captured_at is not None for s in observation.instances)
