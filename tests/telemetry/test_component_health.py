"""Component health is the ``up`` value of each component's registry source.

``/health`` answers 503 and names the component under the conditions the
component reports itself down: a closing broker, a failing sqlite engine,
a storage proxy whose nodes have all failed (the stalled Supervisor is in
``tests/objectmq/test_supervisor.py``, next to its fleet fixture).
"""

from __future__ import annotations

import pytest

from repro.metadata import (
    MemoryMetadataBackend,
    ShardedMetadataBackend,
    SqliteMetadataBackend,
)
from repro.mom import MessageBroker
from repro.storage import SwiftLikeStore
from repro.telemetry.http import OpsServer
from repro.telemetry.registry import REGISTRY


def _components():
    return {c["component"]: c for c in REGISTRY.health()}


def _built(factory):
    """Build a component; return it and the ``/health`` names it added."""
    before = set(_components())
    component = factory()
    return component, sorted(set(_components()) - before)


def _degraded(name):
    """Assert ``/health`` answers 503 with *name* down; return its entry."""
    status, payload = OpsServer().health_payload()
    assert status == 503 and payload["status"] == "degraded"
    (entry,) = [c for c in payload["components"] if c["component"] == name]
    assert entry["ok"] is False
    return entry


def test_closed_broker_is_down_then_decommissioned():
    mom = MessageBroker(name="health-closed")
    name = 'mom_broker{broker="health-closed"}'
    assert _components()[name]["ok"]
    mom._closed = True  # the state close() enters before it unregisters
    _degraded(name)
    assert REGISTRY.snapshot()['mom_broker_up{broker="health-closed"}'] == 0.0
    mom._closed = False
    mom.close()
    assert name not in _components()


def test_sqlite_error_is_down():
    engine, (name,) = _built(SqliteMetadataBackend)
    assert name.startswith("metadata_sqlite{instance=")
    assert _components()[name]["ok"]
    engine._conn.close()  # a broken connection: SELECT 1 raises ProgrammingError
    entry = _degraded(name)
    assert "ProgrammingError" in entry["detail"]["error"]
    engine.close()


@pytest.mark.parametrize(
    "build",
    [
        MemoryMetadataBackend,
        SqliteMetadataBackend,
        lambda: ShardedMetadataBackend.memory(2),
        lambda: ShardedMetadataBackend.sqlite(":memory:", 2),
    ],
    ids=["memory", "sqlite", "sharded-memory", "sharded-sqlite"],
)
def test_a_closed_metadata_engine_leaves_health(build):
    engine, names = _built(build)
    assert names and all(_components()[name]["ok"] for name in names)
    engine.close()
    assert not set(names) & set(_components())


def test_storage_down_only_when_every_node_failed():
    store, (name,) = _built(lambda: SwiftLikeStore(node_count=3, replicas=1))
    assert name == 'storage_proxy{nodes="3",replicas="1"}'
    nodes = list(store.nodes.values())
    for node in nodes[:-1]:
        node.failed = True
    assert _components()[name]["ok"]
    nodes[-1].failed = True
    entry = _degraded(name)
    assert entry["detail"]["failed_nodes"] == 3


def test_two_shard_engines_are_distinct_components():
    for build, engine in (
        (lambda: ShardedMetadataBackend.memory(2), "metadata_memory"),
        (lambda: ShardedMetadataBackend.sqlite(":memory:", 2), "metadata_sqlite"),
    ):
        backend, names = _built(build)
        kinds = sorted(name.partition("{")[0] for name in names)
        assert kinds == sorted([engine, engine, "metadata_sharded"])
        backend.close()
