"""Sharding-specific semantics of the partitioned metadata plane.

The generic DAO contract is covered by test_backends.py /
test_bulk_commits.py (the ``metadata_backend`` fixture includes the
sharded composites); these tests pin down what only a sharded back-end
must guarantee: routing, cross-shard isolation, input-order bulk
outcomes, aggregate counts, and a commit cost close to its engine's.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.metadata import (
    MemoryMetadataBackend,
    ShardedMetadataBackend,
    SqliteMetadataBackend,
)
from repro.sync.models import ItemMetadata, Workspace


def make_item(workspace_id: str, filename: str, version: int = 1) -> ItemMetadata:
    return ItemMetadata(
        workspace_id=workspace_id,
        version=version,
        filename=filename,
        device_id="dev-test",
    )


def seeded_backend(shards: int = 3, workspaces: int = 12):
    backend = ShardedMetadataBackend.memory(shards)
    backend.create_user("u1")
    ids = [f"ws-{i}" for i in range(workspaces)]
    for workspace_id in ids:
        backend.create_workspace(Workspace(workspace_id=workspace_id, owner="u1"))
    return backend, ids


def find_workspaces_on_distinct_shards(backend, workspace_ids):
    by_shard = {}
    for workspace_id in workspace_ids:
        by_shard.setdefault(backend.shard_for_workspace(workspace_id), []).append(
            workspace_id
        )
    shards = sorted(by_shard)
    assert len(shards) >= 2, "seed population too small to hit two shards"
    return by_shard[shards[0]][0], by_shard[shards[1]][0]


def test_requires_engines():
    with pytest.raises(ValueError):
        ShardedMetadataBackend([])


def test_router_engine_count_mismatch_rejected():
    from repro.routing import ShardRouter

    with pytest.raises(ValueError):
        ShardedMetadataBackend(
            [MemoryMetadataBackend(), MemoryMetadataBackend()], router=ShardRouter(3)
        )


def test_workspace_rows_live_on_exactly_one_shard():
    backend, ids = seeded_backend()
    for workspace_id in ids:
        backend.store_versions_bulk([make_item(workspace_id, "a.txt")])
    for workspace_id in ids:
        owner = backend.shard_for_workspace(workspace_id)
        for shard, engine in enumerate(backend.engines):
            assert engine.workspace_exists(workspace_id) == (shard == owner)


def test_users_broadcast_to_every_shard():
    backend, _ids = seeded_backend()
    for engine in backend.engines:
        assert engine.counts()["users"] == 1
    # Aggregate counts must not multiply the replicated table.
    assert backend.counts()["users"] == 1


def test_workspaces_for_unions_all_shards():
    backend, ids = seeded_backend()
    seen = [w.workspace_id for w in backend.workspaces_for("u1")]
    assert seen == sorted(ids)


def test_same_workspace_racers_conflict_on_their_shard():
    backend, ids = seeded_backend()
    workspace_id = ids[0]
    first = make_item(workspace_id, "race.txt", version=1)
    second = make_item(workspace_id, "race.txt", version=1)
    assert backend.store_versions_bulk([first]) == [(True, None)]
    [(committed, current)] = backend.store_versions_bulk([second])
    assert not committed
    assert current is not None and current.version == 1


def test_different_workspaces_commit_on_independent_engines():
    backend, ids = seeded_backend()
    ws_a, ws_b = find_workspaces_on_distinct_shards(backend, ids)
    assert backend.engine_for_workspace(ws_a) is not backend.engine_for_workspace(ws_b)

    # Hold shard A's engine lock while committing to shard B: if shards
    # shared any lock, the B commit would deadlock here.
    engine_a = backend.engine_for_workspace(ws_a)
    done = threading.Event()
    with engine_a._lock:  # noqa: SLF001 - deliberately pinning the shard lock
        worker = threading.Thread(
            target=lambda: (
                backend.store_versions_bulk([make_item(ws_b, "free.txt")]),
                done.set(),
            )
        )
        worker.start()
        assert done.wait(5.0), "commit to an unrelated shard blocked"
        worker.join()
    assert backend.item_history(f"{ws_b}:free.txt") != []


def test_bulk_outcomes_preserve_input_order_across_shards():
    backend, ids = seeded_backend()
    ws_a, ws_b = find_workspaces_on_distinct_shards(backend, ids)
    backend.store_versions_bulk([make_item(ws_a, "old.txt", version=1)])
    proposals = [
        make_item(ws_b, "b1.txt", version=1),   # commits on shard B
        make_item(ws_a, "old.txt", version=1),  # conflicts on shard A
        make_item(ws_a, "a1.txt", version=1),   # commits on shard A
        make_item(ws_b, "b2.txt", version=7),   # conflicts on shard B
    ]
    outcomes = backend.store_versions_bulk(proposals)
    assert [committed for committed, _ in outcomes] == [True, False, True, False]
    # The losing proposal carries its winning current metadata.
    assert outcomes[1][1].version == 1
    assert outcomes[3][1] is None  # version 7 of a brand-new item: no winner


def test_an_item_routes_by_its_id_alone():
    """The first ``:`` of an item id ends its workspace: a workspace id that
    held one would route its items' reads to the shard of its prefix, so such
    a workspace is refused, and a ``:`` in a filename routes as any other."""
    backend = ShardedMetadataBackend([MemoryMetadataBackend() for _ in range(4)])
    assert backend.shard_for_workspace("team:0") != backend.shard_for_workspace("team")
    backend.create_user("alice")
    with pytest.raises(ValueError, match="holds ':'"):
        backend.create_workspace(Workspace(workspace_id="team:0", owner="alice"))
    backend.create_workspace(Workspace(workspace_id="team", owner="alice"))
    item = make_item("team", "0:a.txt")
    assert backend.store_versions_bulk([item]) == [(True, None)]
    assert item.item_id == "team:0:a.txt"
    assert backend.item_history("team:0:a.txt") == [item]
    assert backend.item_history("missing-everywhere") == []


def test_counts_sum_partitioned_tables():
    backend, ids = seeded_backend()
    for workspace_id in ids:
        backend.store_versions_bulk([make_item(workspace_id, "f.txt")])
    totals = backend.counts()
    assert totals["workspaces"] == len(ids)
    assert totals["items"] == len(ids)
    assert sum(c["items"] for c in backend.shard_counts()) == len(ids)


def _commit_calls(backend) -> int:
    """Python calls made by one 1-item ``store_versions_bulk``, after a warm one."""
    backend.create_user("u1")
    backend.create_workspace(Workspace(workspace_id="ws-calls", owner="u1"))
    backend.store_versions_bulk([make_item("ws-calls", "warm.txt")])
    proposals = [make_item("ws-calls", "f.txt")]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        backend.store_versions_bulk(proposals)
    finally:
        sys.setprofile(None)
    backend.close()
    return calls


@pytest.mark.parametrize("engine_cls", [MemoryMetadataBackend, SqliteMetadataBackend])
def test_routing_a_commit_adds_few_calls_to_its_engine(engine_cls):
    """The router is fixed, so a sharded commit is a hash lookup and a
    hand-off: no lock, no context manager, no wait of its own."""
    alone = _commit_calls(engine_cls())
    sharded = _commit_calls(ShardedMetadataBackend([engine_cls() for _ in range(4)]))
    assert sharded - alone <= 4, (alone, sharded)
