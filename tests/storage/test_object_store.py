"""Tests for the Swift-like object store (proxy, replicas, failures)."""

from __future__ import annotations

import pytest

from repro.errors import ObjectNotFound, StorageError
from repro.storage import LatencyModel, LatencyProfile, SwiftLikeStore


@pytest.fixture
def store():
    return SwiftLikeStore(node_count=4, replicas=2)


def test_container_required(store):
    with pytest.raises(StorageError):
        store.put_object("missing", "k", b"x")
    with pytest.raises(StorageError):
        store.get_object("missing", "k")


def test_put_get_round_trip(store):
    store.create_container("u-alice")
    store.put_object("u-alice", "fp1", b"payload")
    assert store.get_object("u-alice", "fp1") == b"payload"


def test_get_unknown_object_raises(store):
    store.create_container("c")
    with pytest.raises(ObjectNotFound):
        store.get_object("c", "ghost")


def test_objects_replicated(store):
    store.create_container("c")
    store.put_object("c", "fp", b"data")
    holders = [n for n in store.nodes.values() if "c/fp" in n.keys()]
    assert len(holders) == 2


def test_read_survives_primary_failure(store):
    store.create_container("c")
    store.put_object("c", "fp", b"data")
    primary = store.ring.primary_for("c/fp")
    store.nodes[primary].failed = True
    assert store.get_object("c", "fp") == b"data"
    store.nodes[primary].failed = False


@pytest.mark.parametrize("replica", [0, 1])
def test_read_survives_any_single_replica_down(store, replica):
    store.create_container("c")
    store.put_object("c", "fp", b"data")
    down = store.nodes[store.ring.devices_for("c/fp")[replica]]
    down.failed = True
    assert store.get_object("c", "fp") == b"data"
    assert store.object_size("c", "fp") == 4
    assert store.scrape()["failed_nodes"] == 1 and store.scrape()["up"] == 1


def test_put_with_a_replica_down_writes_the_live_one(store):
    store.create_container("c")
    primary, secondary = store.ring.devices_for("c/fp")
    store.nodes[primary].failed = True
    store.put_object("c", "fp", b"data")
    store.nodes[primary].failed = False
    assert "c/fp" not in store.nodes[primary].keys()
    assert "c/fp" in store.nodes[secondary].keys()
    # The read fails over from the primary that missed the write.
    assert store.get_object("c", "fp") == b"data"


def test_delete_skips_a_down_replica(store):
    store.create_container("c")
    store.put_object("c", "fp", b"data")
    primary, secondary = store.ring.devices_for("c/fp")
    store.nodes[secondary].failed = True
    assert store.delete_object("c", "fp") is True
    store.nodes[secondary].failed = False
    assert "c/fp" not in store.nodes[primary].keys()
    assert "c/fp" in store.nodes[secondary].keys()


def test_nothing_is_up_when_every_node_is_down(store):
    for node in store.nodes.values():
        node.failed = True
    assert store.scrape()["up"] == 0
    assert store.scrape()["failed_nodes"] == len(store.nodes)


def test_write_fails_only_when_all_replicas_down(store):
    store.create_container("c")
    devices = store.ring.devices_for("c/key")
    for device in devices:
        store.nodes[device].failed = True
    with pytest.raises(StorageError):
        store.put_object("c", "key", b"x")
    store.nodes[devices[0]].failed = False
    store.put_object("c", "key", b"x")  # one replica suffices


def test_delete_removes_every_replica(store):
    store.create_container("c")
    store.put_object("c", "fp", b"x")
    assert store.delete_object("c", "fp") is True
    assert not any("c/fp" in n.keys() for n in store.nodes.values())
    with pytest.raises(ObjectNotFound):
        store.get_object("c", "fp")
    assert store.delete_object("c", "fp") is False


def test_list_container_is_namespaced(store):
    store.create_container("a")
    store.create_container("b")
    store.put_object("a", "one", b"1")
    store.put_object("b", "two", b"2")
    assert store.list_container("a") == ["one"]
    assert store.list_container("b") == ["two"]


def test_traffic_counters(store):
    store.create_container("c")
    store.put_object("c", "fp", b"12345")
    store.get_object("c", "fp")
    assert store.bytes_in == 5
    assert store.bytes_out == 5
    assert store.put_count == 1
    assert store.get_count == 1


def test_latency_model_charged_per_operation():
    latency = LatencyModel(
        profile=LatencyProfile(base=0.001, bandwidth=1e6, jitter=0.0), sleep=False
    )
    store = SwiftLikeStore(node_count=2, replicas=1, latency=latency)
    store.create_container("c")
    store.put_object("c", "fp", b"x" * 10_000)
    assert latency.operations == 1
    assert latency.total_simulated == pytest.approx(0.001 + 0.01)


def test_latency_scaling():
    profile = LatencyProfile(base=0.010, bandwidth=1e6, jitter=0.0)
    fast = profile.scaled(0.1)
    assert fast.base == pytest.approx(0.001)
    model = LatencyModel(profile=fast, sleep=False)
    # 1 MB at 10 MB/s effective = 0.1 s, plus 1 ms base
    assert model.latency_for(1_000_000) == pytest.approx(0.101)
