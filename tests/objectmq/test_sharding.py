"""Partitioned oids: naming, ShardedProxy routing, shard-aware control loop."""

from __future__ import annotations

import threading

import pytest

from repro.mom import MessageBroker
from repro.objectmq import (
    Broker,
    Remote,
    ShardedSupervisor,
    async_method,
    multi_method,
    parse_shard_oid,
    remote_interface,
    shard_oid,
    sync_method,
)
from repro.objectmq.provisioner import FixedProvisioner
from repro.objectmq.remote_broker import RemoteBroker
from repro.routing import ShardRouter
from repro.telemetry.control import KIND_DECISION, DecisionJournal


# -- naming ----------------------------------------------------------------------------


def test_shard_oid_round_trip():
    assert shard_oid("sync", 3) == "sync.shard.3"
    assert parse_shard_oid("sync.shard.3") == ("sync", 3)
    assert parse_shard_oid("sync") == ("sync", None)
    assert parse_shard_oid("sync.shard.x") == ("sync.shard.x", None)
    # Nested-looking names resolve to the last shard segment.
    assert parse_shard_oid("a.shard.1.shard.2") == ("a.shard.1", 2)


def test_shard_oid_rejects_negative():
    with pytest.raises(ValueError):
        shard_oid("sync", -1)


# -- ShardedProxy ----------------------------------------------------------------------


@remote_interface
class EchoApi(Remote):
    @sync_method(timeout=2.0, retry=1)
    def where(self, key):
        ...

    @async_method
    def record(self, key):
        ...

    @multi_method
    @sync_method(timeout=1.0, retry=0)
    def census(self, key):
        ...


class EchoServer:
    def __init__(self, shard):
        self.shard = shard
        self.recorded = []
        self.lock = threading.Lock()
        self.seen = threading.Event()

    def where(self, key):
        return self.shard

    def record(self, key):
        with self.lock:
            self.recorded.append(key)
        self.seen.set()

    def census(self, key):
        return self.shard


@pytest.fixture
def sharded_stack():
    mom = MessageBroker()
    server_broker = Broker(mom)
    servers = [EchoServer(shard) for shard in range(3)]
    for shard, server in enumerate(servers):
        server_broker.bind(shard_oid("echo", shard), server)
    client_broker = Broker(mom)
    proxy = client_broker.lookup_sharded("echo", EchoApi, 3)
    yield proxy, servers
    client_broker.close()
    server_broker.close()
    mom.close()


def test_sync_calls_route_by_first_argument(sharded_stack):
    proxy, _servers = sharded_stack
    router = ShardRouter(3)
    for i in range(30):
        key = f"ws-{i}"
        # The server on the routed shard answered — and it agrees with
        # an independently built router (client/server determinism).
        assert proxy.where(key) == router.shard_for(key)


def test_same_key_always_hits_same_shard(sharded_stack):
    proxy, _servers = sharded_stack
    assert len({proxy.where("ws-stable") for _ in range(10)}) == 1


def test_async_calls_route_too(sharded_stack):
    proxy, servers = sharded_stack
    key = next(f"k{i}" for i in range(100) if proxy.shard_for(f"k{i}") == 1)
    proxy.record(key)
    assert servers[1].seen.wait(5.0)
    assert servers[1].recorded == [key]


def test_multi_methods_fan_out_to_every_shard(sharded_stack):
    proxy, _servers = sharded_stack
    assert sorted(proxy.census("ignored")) == [0, 1, 2]


def test_missing_routing_key_is_a_type_error(sharded_stack):
    proxy, _servers = sharded_stack
    with pytest.raises(TypeError):
        proxy.where()


def test_single_shard_proxy_degenerates_cleanly():
    mom = MessageBroker()
    server_broker = Broker(mom)
    server_broker.bind(shard_oid("echo", 0), EchoServer(0))
    client_broker = Broker(mom)
    proxy = client_broker.lookup_sharded("echo", EchoApi, 1)
    assert proxy.where("anything") == 0
    client_broker.close()
    server_broker.close()
    mom.close()


# -- shard-aware supervision -----------------------------------------------------------


class Sleeper:
    def nap(self):
        return "ok"


def test_sharded_supervisor_runs_one_loop_per_shard():
    mom = MessageBroker()
    machine_broker = Broker(mom)
    rbroker = RemoteBroker(machine_broker, broker_name="m0")
    for shard in range(2):
        rbroker.register_factory(shard_oid("svc", shard), Sleeper)
    rbroker.serve()

    journal = DecisionJournal()
    sup_broker = Broker(mom)
    supervisor = ShardedSupervisor(
        sup_broker,
        "svc",
        lambda: FixedProvisioner(2),
        shards=2,
        journal=journal,
        min_instances=1,
        max_instances=4,
    )
    try:
        records = supervisor.step()
        assert len(records) == 2
        records = supervisor.step()
        assert [record.pool_size for record in records] == [2, 2]

        # Per-shard Supervisors parsed their shard from the oid and
        # stamped it on every journal entry.
        decisions = [e for e in journal.events() if e.kind == KIND_DECISION]
        shards_seen = {e.data["shard"] for e in decisions}
        assert shards_seen == {0, 1}
        oids_seen = {e.data["oid"] for e in decisions}
        assert oids_seen == {"svc.shard.0", "svc.shard.1"}
    finally:
        rbroker.stop()
        sup_broker.close()
        machine_broker.close()
        mom.close()


def test_plain_supervisor_has_no_shard_label():
    from repro.objectmq import Supervisor

    mom = MessageBroker()
    broker = Broker(mom)
    supervisor = Supervisor(broker, "plain", FixedProvisioner(1))
    assert supervisor.shard is None
    assert supervisor.base_oid == "plain"
    sharded = Supervisor(broker, shard_oid("plain", 4), FixedProvisioner(1))
    assert sharded.shard == 4
    assert sharded.base_oid == "plain"
    broker.close()
    mom.close()
