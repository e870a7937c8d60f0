"""Nothing confirmed is lost across a fenced workspace migration.

``migrate_workspace`` raises a write fence and then exports the source
copy.  A commit admitted *before* the fence landed may still be on its
way to the source engine; the migration has to wait for it, or the
export misses it and ``drop_workspace`` deletes a commit whose device
was already told it won.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.sync.models import Workspace
from tests.conftest import make_metadata_backend
from tests.metadata.test_sharded import make_item


@pytest.fixture(params=["sharded", "sharded-sqlite"])
def backend(request):
    backend = make_metadata_backend(request.param)
    backend.create_user("u1")
    backend.create_workspace(Workspace(workspace_id="ws", owner="u1"))
    yield backend
    backend.close()


def test_migration_waits_for_writes_admitted_before_the_fence(backend, monkeypatch):
    source_shard = backend.shard_for_workspace("ws")
    source = backend.engines[source_shard]
    target_shard = (source_shard + 1) % backend.num_shards

    admitted = threading.Event()
    export_taken = threading.Event()
    exported_under_write = []
    real_store = source.store_versions_bulk
    real_export = source.export_workspace

    def paused_store(proposals):
        # Past the fence, not yet in the engine: the window the fence
        # has to cover.  Hold it open until the export has been taken
        # (the bug) or a grace period shows the migration is waiting.
        admitted.set()
        exported_under_write.append(export_taken.wait(0.3))
        return real_store(proposals)

    def recording_export(workspace_id):
        dump = real_export(workspace_id)
        export_taken.set()
        return dump

    monkeypatch.setattr(source, "store_versions_bulk", paused_store)
    monkeypatch.setattr(source, "export_workspace", recording_export)

    outcomes = []
    writer = threading.Thread(
        target=lambda: outcomes.extend(
            backend.store_versions_bulk([make_item("ws", "doc.txt")])
        )
    )
    writer.start()
    assert admitted.wait(5.0)
    summary = backend.migrate_workspace("ws", target_shard)
    writer.join(timeout=5.0)
    assert not writer.is_alive()

    assert exported_under_write == [False]
    assert outcomes == [(True, None)]
    assert summary["versions"] == 1
    assert backend.shard_for_workspace("ws") == target_shard
    history = backend.item_history("ws:doc.txt")
    assert [m.version for m in history] == [1]


def test_confirmed_commits_survive_a_migration_storm(backend):
    """Writers race a migrator bouncing their workspace between shards."""
    writers, commits_each = 8, 40
    confirmed = [0] * writers
    stop = threading.Event()

    def write(index: int) -> None:
        for version in range(1, commits_each + 1):
            ((committed, _),) = backend.store_versions_bulk(
                [make_item("ws", f"w{index}.txt", version)]
            )
            assert committed
            confirmed[index] = version

    def migrate() -> None:
        shard = backend.shard_for_workspace("ws")
        while not stop.is_set():
            shard = (shard + 1) % backend.num_shards
            backend.migrate_workspace("ws", shard)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        migrator = threading.Thread(target=migrate)
        threads = [threading.Thread(target=write, args=(i,)) for i in range(writers)]
        migrator.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        migrator.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not migrator.is_alive()
    assert not any(thread.is_alive() for thread in threads)

    assert confirmed == [commits_each] * writers
    for index in range(writers):
        history = backend.item_history(f"ws:w{index}.txt")
        assert [m.version for m in history] == list(range(1, commits_each + 1))


def test_read_straddling_the_routing_flip_does_not_pin_the_old_shard(
    backend, monkeypatch
):
    """An unfenced read resolves the owning shard, then a whole migration
    lands before the read uses the answer.  That one read may see the
    emptied source; every later one has to find the workspace."""
    first = backend.shard_for_workspace("ws")
    second = (first + 1) % backend.num_shards
    backend.store_versions_bulk([make_item("ws", "doc.txt")])
    # Moved once already, so the read below has to resolve its routing.
    backend.migrate_workspace("ws", second)

    real_resolve = backend.shard_for_workspace
    raced = []

    def resolve_then_migrate(workspace_id):
        shard = real_resolve(workspace_id)
        if not raced:
            raced.append(shard)
            backend.migrate_workspace(workspace_id, first)
        return shard

    with monkeypatch.context() as patch:
        patch.setattr(backend, "shard_for_workspace", resolve_then_migrate)
        backend.workspace_exists("ws")

    assert raced == [second]
    assert backend.shard_for_workspace("ws") == first
    assert backend.workspace_exists("ws")
    assert [m.version for m in backend.get_workspace_state("ws")] == [1]
    assert backend.store_versions_bulk([make_item("ws", "doc.txt", 2)]) == [
        (True, None)
    ]
