"""Sharding-specific semantics of the partitioned metadata plane.

The generic DAO contract is covered by test_backends.py /
test_bulk_commits.py (the ``metadata_backend`` fixture includes the
sharded composites); these tests pin down what only a sharded back-end
must guarantee: routing, cross-shard isolation, input-order bulk
outcomes, aggregate counts, and the migrate-under-fence primitive.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import MetadataError
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
        backend.store_new_object(make_item(workspace_id, "a.txt"))
    for workspace_id in ids:
        owner = backend.shard_for_workspace(workspace_id)
        for shard, engine in enumerate(backend.engines):
            assert engine.workspace_exists(workspace_id) == (shard == owner)


def test_users_and_devices_broadcast_to_every_shard():
    backend, _ids = seeded_backend()
    backend.register_device("u1", "dev-a", "laptop")
    for engine in backend.engines:
        assert engine.counts()["users"] == 1
        assert engine.devices_for("u1") == ["dev-a"]
    # Aggregate counts must not multiply the replicated tables.
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
                backend.store_new_object(make_item(ws_b, "free.txt")),
                done.set(),
            )
        )
        worker.start()
        assert done.wait(5.0), "commit to an unrelated shard blocked"
        worker.join()
    assert backend.get_current(f"{ws_b}:free.txt") is not None


def test_bulk_outcomes_preserve_input_order_across_shards():
    backend, ids = seeded_backend()
    ws_a, ws_b = find_workspaces_on_distinct_shards(backend, ids)
    backend.store_new_object(make_item(ws_a, "old.txt", version=1))
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
    backend.store_new_object(item)
    assert item.item_id == "team:0:a.txt"
    assert backend.get_current("team:0:a.txt") == item
    assert backend.item_history("team:0:a.txt") == [item]
    assert backend.get_current("missing-everywhere") is None
    assert backend.item_history("missing-everywhere") == []


def test_counts_sum_partitioned_tables():
    backend, ids = seeded_backend()
    for workspace_id in ids:
        backend.store_new_object(make_item(workspace_id, "f.txt"))
    totals = backend.counts()
    assert totals["workspaces"] == len(ids)
    assert totals["items"] == len(ids)
    assert sum(c["items"] for c in backend.shard_counts()) == len(ids)


@pytest.mark.parametrize("engine_kind", ["memory", "sqlite"])
def test_migrate_workspace_moves_history_verbatim(engine_kind):
    if engine_kind == "memory":
        backend = ShardedMetadataBackend.memory(3)
    else:
        backend = ShardedMetadataBackend.sqlite(":memory:", 3)
    backend.create_user("u1")
    workspace_id = "ws-migrate"
    backend.create_workspace(Workspace(workspace_id=workspace_id, owner="u1"))
    for version in range(1, 4):
        if version == 1:
            backend.store_new_object(make_item(workspace_id, "doc.txt", version))
        else:
            backend.store_new_version(make_item(workspace_id, "doc.txt", version))
    before = backend.item_history(f"{workspace_id}:doc.txt")

    source = backend.shard_for_workspace(workspace_id)
    target = (source + 1) % backend.num_shards
    summary = backend.migrate_workspace(workspace_id, target)
    assert summary == {"source": source, "target": target, "items": 1, "versions": 3}

    # Routing now honors the override; the source shard holds nothing.
    assert backend.shard_for_workspace(workspace_id) == target
    assert not backend.engines[source].workspace_exists(workspace_id)
    assert backend.engines[target].workspace_exists(workspace_id)
    assert backend.item_history(f"{workspace_id}:doc.txt") == before

    # The workspace keeps committing after the move.
    backend.store_new_version(make_item(workspace_id, "doc.txt", 4))
    assert backend.get_current(f"{workspace_id}:doc.txt").version == 4
    backend.close()


def test_migrate_to_current_shard_is_a_noop():
    backend, ids = seeded_backend()
    workspace_id = ids[0]
    shard = backend.shard_for_workspace(workspace_id)
    summary = backend.migrate_workspace(workspace_id, shard)
    assert summary["items"] == 0 and summary["versions"] == 0
    assert backend.shard_for_workspace(workspace_id) == shard


def test_migrate_rejects_bad_shard():
    backend, ids = seeded_backend()
    with pytest.raises(ValueError):
        backend.migrate_workspace(ids[0], 99)


def test_import_refuses_to_merge_existing_workspace():
    backend, ids = seeded_backend()
    workspace_id = ids[0]
    backend.store_new_object(make_item(workspace_id, "a.txt"))
    engine = backend.engine_for_workspace(workspace_id)
    dump = engine.export_workspace(workspace_id)
    with pytest.raises(MetadataError):
        engine.import_workspace(dump)


@pytest.mark.parametrize("chain", [[], [1, 3], [2], [1, 1]])
def test_memory_import_refuses_a_chain_that_is_not_versions_1_to_n(chain):
    """A packed history keeps no version numbers: its positions are them."""
    source, target = MemoryMetadataBackend(), MemoryMetadataBackend()
    source.create_user("owner")
    source.create_workspace(Workspace(workspace_id="ws-x", owner="owner"))
    source.store_new_object(make_item("ws-x", "f.txt", 1))
    dump = source.export_workspace("ws-x")
    dump.versions["ws-x:g.txt"] = [make_item("ws-x", "g.txt", v) for v in chain]
    with pytest.raises(MetadataError, match="not 1..n"):
        target.import_workspace(dump)
    assert not target.workspace_exists("ws-x")
    assert target.counts()["versions"] == 0


@pytest.mark.parametrize("engine_cls", [MemoryMetadataBackend, SqliteMetadataBackend])
def test_export_import_drop_round_trip(engine_cls):
    source = engine_cls()
    target = engine_cls()
    source.create_user("owner", "The Owner")
    source.create_user("guest")
    source.create_workspace(Workspace(workspace_id="ws-x", owner="owner"))
    source.grant_access("ws-x", "guest")
    source.store_new_object(make_item("ws-x", "f.txt", 1))
    source.store_new_version(make_item("ws-x", "f.txt", 2))

    dump = source.export_workspace("ws-x")
    assert dump.item_count == 1 and dump.version_count == 2
    target.import_workspace(dump)
    assert target.item_history("ws-x:f.txt") == source.item_history("ws-x:f.txt")
    assert [w.workspace_id for w in target.workspaces_for("guest")] == ["ws-x"]

    source.drop_workspace("ws-x")
    assert not source.workspace_exists("ws-x")
    assert source.counts()["versions"] == 0
    # Users are global and survive the drop.
    assert source.counts()["users"] == 2
    source.close()
    target.close()


def test_write_fence_blocks_commits_during_migration():
    backend, ids = seeded_backend()
    workspace_id = ids[0]
    backend.store_new_object(make_item(workspace_id, "doc.txt", 1))
    source = backend.engine_for_workspace(workspace_id)
    target_shard = (backend.shard_for_workspace(workspace_id) + 1) % 3

    export_entered = threading.Event()
    release_export = threading.Event()
    real_export = source.export_workspace

    def slow_export(wid):
        export_entered.set()
        assert release_export.wait(5.0)
        return real_export(wid)

    source.export_workspace = slow_export  # type: ignore[method-assign]
    migration = threading.Thread(
        target=backend.migrate_workspace, args=(workspace_id, target_shard)
    )
    migration.start()
    assert export_entered.wait(5.0)

    committed = threading.Event()
    writer = threading.Thread(
        target=lambda: (
            backend.store_new_version(make_item(workspace_id, "doc.txt", 2)),
            committed.set(),
        )
    )
    writer.start()
    # The write must be fenced while the migration is in flight...
    assert not committed.wait(0.3)
    release_export.set()
    # ...and land on the *target* shard once the fence lifts.
    assert committed.wait(5.0)
    migration.join(timeout=5.0)
    writer.join(timeout=5.0)
    assert backend.shard_for_workspace(workspace_id) == target_shard
    history = backend.item_history(f"{workspace_id}:doc.txt")
    assert [m.version for m in history] == [1, 2]


def test_concurrent_migration_of_same_workspace_rejected():
    backend, ids = seeded_backend()
    workspace_id = ids[0]
    with backend._fence:  # noqa: SLF001 - simulate an in-flight migration
        backend._fenced.add(workspace_id)
    try:
        with pytest.raises(MetadataError):
            backend.migrate_workspace(workspace_id, 1)
    finally:
        with backend._fence:  # noqa: SLF001
            backend._fenced.discard(workspace_id)
