"""Back-end contract tests, run against both metadata engines.

The ``metadata_backend`` fixture (conftest) parametrizes over the
in-memory and SQLite implementations, so every test here pins down the
shared ACID contract Algorithm 1 relies on.
"""

from __future__ import annotations

import random
import sqlite3
import threading
from contextlib import closing
from dataclasses import replace

import pytest

from repro.errors import MetadataError, TransactionAborted, UnknownWorkspace
from repro.sync.models import (
    STATUS_CHANGED,
    STATUS_DELETED,
    ItemMetadata,
    Workspace,
)


def setup_workspace(backend, user="alice", workspace_id="ws1"):
    backend.create_user(user)
    workspace = Workspace(workspace_id=workspace_id, owner=user)
    backend.create_workspace(workspace)
    return workspace


def item(version=1, item_id="ws1:a.txt", status="NEW", chunks=None, ws="ws1"):
    return ItemMetadata(
        item_id=item_id,
        workspace_id=ws,
        version=version,
        filename=item_id.split(":", 1)[1],
        status=status,
        size=10,
        checksum="c" * 40,
        chunks=chunks if chunks is not None else ["f1" * 20],
        modified_at=1.0,
        device_id="dev",
    )


def test_user_and_workspace_lifecycle(metadata_backend):
    workspace = setup_workspace(metadata_backend)
    assert metadata_backend.workspace_exists("ws1")
    assert metadata_backend.workspaces_for("alice") == [workspace]
    assert metadata_backend.workspaces_for("nobody") == []


def test_create_workspace_requires_owner(metadata_backend):
    with pytest.raises(MetadataError):
        metadata_backend.create_workspace(Workspace(workspace_id="w", owner="ghost"))


def test_grant_access_shares_workspace(metadata_backend):
    workspace = setup_workspace(metadata_backend)
    metadata_backend.create_user("bob")
    metadata_backend.grant_access("ws1", "bob")
    assert metadata_backend.workspaces_for("bob") == [workspace]


def test_grant_access_validates_both_sides(metadata_backend):
    setup_workspace(metadata_backend)
    with pytest.raises(MetadataError):
        metadata_backend.grant_access("ws1", "ghost")
    metadata_backend.create_user("bob")
    with pytest.raises(UnknownWorkspace):
        metadata_backend.grant_access("missing", "bob")


def test_store_and_get_current(metadata_backend):
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1))
    current = metadata_backend.get_current("ws1:a.txt")
    assert current is not None
    assert current.version == 1
    assert current.chunks == (b"\xf1" * 20,)


def test_get_current_unknown_item(metadata_backend):
    assert metadata_backend.get_current("nope") is None


def test_store_new_object_rejects_duplicates(metadata_backend):
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1))
    with pytest.raises(TransactionAborted):
        metadata_backend.store_new_object(item(version=1))


def test_store_new_object_requires_version_one(metadata_backend):
    setup_workspace(metadata_backend)
    with pytest.raises(TransactionAborted):
        metadata_backend.store_new_object(item(version=2))


def test_store_new_object_requires_workspace(metadata_backend):
    with pytest.raises(UnknownWorkspace):
        metadata_backend.store_new_object(item(version=1))


def test_version_chain_must_be_contiguous(metadata_backend):
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1))
    metadata_backend.store_new_version(item(version=2, status=STATUS_CHANGED))
    with pytest.raises(TransactionAborted):
        metadata_backend.store_new_version(item(version=2, status=STATUS_CHANGED))
    with pytest.raises(TransactionAborted):
        metadata_backend.store_new_version(item(version=5, status=STATUS_CHANGED))
    assert metadata_backend.get_current("ws1:a.txt").version == 2


def test_store_new_version_requires_existing_item(metadata_backend):
    setup_workspace(metadata_backend)
    with pytest.raises(TransactionAborted):
        metadata_backend.store_new_version(item(version=2, status=STATUS_CHANGED))


def test_workspace_state_excludes_deleted(metadata_backend):
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1, item_id="ws1:a.txt"))
    metadata_backend.store_new_object(item(version=1, item_id="ws1:b.txt"))
    metadata_backend.store_new_version(
        item(version=2, item_id="ws1:b.txt", status=STATUS_DELETED)
    )
    state = metadata_backend.get_workspace_state("ws1")
    assert [m.item_id for m in state] == ["ws1:a.txt"]


def test_workspace_state_latest_version_only(metadata_backend):
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1))
    metadata_backend.store_new_version(
        item(version=2, status=STATUS_CHANGED, chunks=["f2" * 20])
    )
    state = metadata_backend.get_workspace_state("ws1")
    assert len(state) == 1
    assert state[0].version == 2
    assert state[0].chunks == (b"\xf2" * 20,)


def test_item_history_ordered(metadata_backend):
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1))
    metadata_backend.store_new_version(item(version=2, status=STATUS_CHANGED))
    metadata_backend.store_new_version(item(version=3, status=STATUS_CHANGED))
    history = metadata_backend.item_history("ws1:a.txt")
    assert [m.version for m in history] == [1, 2, 3]


def test_renamed_and_moved_versions_round_trip(metadata_backend):
    """A version may name another file or workspace than its item's first version
    does: every engine returns it as stored, keeps the item in the workspace of
    its first version, and carries it through export and import."""
    setup_workspace(metadata_backend)
    other = "ws2"
    sharded = hasattr(metadata_backend, "migrate_workspace")
    if sharded:  # an item's history lives on one shard: put both there
        home = metadata_backend.shard_for_workspace("ws1")
        other = next(
            w
            for w in (f"ws{n}" for n in range(2, 100))
            if metadata_backend.shard_for_workspace(w) == home
        )
    metadata_backend.create_workspace(Workspace(workspace_id=other, owner="alice"))
    chain = [
        item(version=1),
        replace(item(version=2, status=STATUS_CHANGED), filename="b.txt"),
        item(version=3, status=STATUS_CHANGED, ws=other),
    ]
    metadata_backend.store_versions_bulk(chain)

    def check(engine):
        assert engine.item_history("ws1:a.txt") == chain
        assert engine.get_current("ws1:a.txt") == chain[-1]
        assert engine.get_workspace_state("ws1") == [chain[-1]]

    check(metadata_backend)
    assert metadata_backend.get_workspace_state(other) == []
    if sharded:
        metadata_backend.migrate_workspace("ws1", (home + 1) % metadata_backend.num_shards)
        check(metadata_backend)
        return
    dump = metadata_backend.export_workspace("ws1")
    assert dump.versions == {"ws1:a.txt": chain}
    copy = type(metadata_backend)()
    try:
        copy.import_workspace(dump)
        check(copy)
        assert copy.export_workspace("ws1") == dump
    finally:
        copy.close()


def test_counts(metadata_backend):
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1))
    metadata_backend.store_new_version(item(version=2, status=STATUS_CHANGED))
    counts = metadata_backend.counts()
    assert counts["users"] == 1
    assert counts["workspaces"] == 1
    assert counts["items"] == 1
    assert counts["versions"] == 2


def test_device_registry(metadata_backend):
    metadata_backend.create_user("alice")
    metadata_backend.register_device("alice", "laptop", name="MacBook")
    metadata_backend.register_device("alice", "phone")
    metadata_backend.register_device("alice", "laptop")  # idempotent
    assert metadata_backend.devices_for("alice") == ["laptop", "phone"]
    assert metadata_backend.devices_for("nobody") == []


def test_device_registry_requires_user(metadata_backend):
    with pytest.raises(MetadataError):
        metadata_backend.register_device("ghost", "dev")


def test_client_startup_registers_device(testbed):
    testbed.client(device_id="registered-dev")
    assert "registered-dev" in testbed.metadata.devices_for("alice")


def test_concurrent_commits_exactly_one_winner(metadata_backend):
    """The first-writer-wins race at the heart of conflict handling."""
    setup_workspace(metadata_backend)
    metadata_backend.store_new_object(item(version=1))

    outcomes = []
    barrier = threading.Barrier(2)

    def racer(device):
        proposal = ItemMetadata(
            item_id="ws1:a.txt",
            workspace_id="ws1",
            version=2,
            filename="a.txt",
            status=STATUS_CHANGED,
            device_id=device,
        )
        barrier.wait()
        try:
            metadata_backend.store_new_version(proposal)
            outcomes.append((device, "ok"))
        except TransactionAborted:
            outcomes.append((device, "conflict"))

    threads = [threading.Thread(target=racer, args=(d,)) for d in ("d1", "d2")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    results = sorted(o[1] for o in outcomes)
    assert results == ["conflict", "ok"]
    assert metadata_backend.get_current("ws1:a.txt").version == 2


def test_concurrent_new_objects_exactly_one_winner(metadata_backend):
    setup_workspace(metadata_backend)
    outcomes = []
    barrier = threading.Barrier(4)

    def racer(i):
        barrier.wait()
        try:
            metadata_backend.store_new_object(item(version=1))
            outcomes.append("ok")
        except TransactionAborted:
            outcomes.append("conflict")

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes.count("ok") == 1
    assert outcomes.count("conflict") == 3


def test_sqlite_persists_to_disk(tmp_path):
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "meta.db")
    backend = SqliteMetadataBackend(path)
    setup_workspace(backend)
    backend.store_new_object(item(version=1))
    backend.close()

    reopened = SqliteMetadataBackend(path)
    assert reopened.get_current("ws1:a.txt").version == 1
    assert reopened.workspace_exists("ws1")
    reopened.close()
    with closing(sqlite3.connect(path)) as raw:  # the file keeps WAL and its stamp
        assert raw.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert raw.execute("PRAGMA user_version").fetchone()[0] == 2


def test_sqlite_refuses_a_file_of_the_hex_layout(tmp_path):
    """A file from before digests were BLOBs (unstamped, hex TEXT and JSON) would
    be misread row by row: it is refused on open, not served."""
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "hex.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE item_versions (item_id TEXT, version INTEGER, workspace_id TEXT,"
        " filename TEXT, status TEXT, is_folder INTEGER, size INTEGER,"
        " checksum TEXT, chunks TEXT, modified_at REAL, device_id TEXT);"
    )
    old.execute(
        "INSERT INTO item_versions VALUES (?, 1, 'ws1', 'a.txt', 'NEW', 0, 1, ?, ?, 0, 'd')",
        ("ws1:a.txt", "cc" * 20, f'["{"f1" * 20}"]'),
    )
    old.commit()
    old.close()
    with pytest.raises(MetadataError, match="schema version 0"):
        SqliteMetadataBackend(path)


def test_sqlite_refuses_a_file_of_the_flat_layout(tmp_path):
    """A version-1 file keeps every version in one flat ``item_versions`` table,
    which this build no longer reads: it is refused on open, not served."""
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "flat.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE item_versions (item_id TEXT, version INTEGER, workspace_id TEXT,"
        " filename TEXT, status TEXT, is_folder INTEGER, size INTEGER,"
        " checksum BLOB, chunks BLOB, modified_at REAL, device_id TEXT,"
        " PRIMARY KEY (item_id, version));"
        "PRAGMA user_version = 1;"
    )
    old.close()
    with pytest.raises(MetadataError, match="schema version 1"):
        SqliteMetadataBackend(path)


def test_sqlite_stores_an_update_in_under_100_bytes():
    """The commit-bundle shape: 16 workspaces of 512 items at version 1, then
    8-item update bundles.  Each stored update grows the database by at most
    100 B (about 86 B; a layout that repeats the item's identity in every
    version row takes about 300 B)."""
    from repro.metadata import SqliteMetadataBackend

    rng = random.Random(5)
    workspaces = [f"ws-{rng.getrandbits(32):08x}-{w:02d}" for w in range(16)]

    def proposal(workspace, index, version):
        path = f"dir-{index % 16:02d}/file-{index:08d}.dat"
        return ItemMetadata(
            item_id=f"{workspace}:{path}",
            workspace_id=workspace,
            version=version,
            filename=path,
            status="NEW" if version == 1 else STATUS_CHANGED,
            size=512 * 1024,
            checksum=rng.randbytes(20),
            chunks=(rng.randbytes(20),),
            modified_at=1_400_000_000.0 + version,
            device_id="dev-generator",
        )

    backend = SqliteMetadataBackend(":memory:")
    backend.create_user("alice")

    def size():
        pragma = backend._conn.execute
        return (
            pragma("PRAGMA page_count").fetchone()[0]
            * pragma("PRAGMA page_size").fetchone()[0]
        )

    try:
        for workspace in workspaces:
            backend.create_workspace(Workspace(workspace_id=workspace, owner="alice"))
            for first in range(0, 512, 8):
                backend.store_versions_bulk(
                    [proposal(workspace, first + r, 1) for r in range(8)]
                )
        before, bundles = size(), 1024
        for n in range(bundles):
            touched = (n // 16) * 8
            outcomes = backend.store_versions_bulk(
                [
                    proposal(workspaces[n % 16], (touched + r) % 512, 2 + touched // 512)
                    for r in range(8)
                ]
            )
            assert all(committed for committed, _ in outcomes)
        assert (size() - before) / (8 * bundles) <= 100
    finally:
        backend.close()


def test_digests_of_any_one_width_round_trip(metadata_backend):
    """SHA-256 chunk lists (32-byte digests) come back as stored, not cut at 20."""
    setup_workspace(metadata_backend)
    sha256 = (b"\x01" * 32, b"\x02" * 32)
    metadata_backend.store_new_object(item(version=1, chunks=sha256))
    metadata_backend.store_new_version(item(version=2, status=STATUS_CHANGED, chunks=()))
    first, second = metadata_backend.item_history("ws1:a.txt")
    assert (first.chunks, first.checksum) == (sha256, b"\xcc" * 20)
    assert second.chunks == ()


def test_sqlite_refuses_chunks_of_mixed_widths():
    from repro.metadata import SqliteMetadataBackend

    backend = SqliteMetadataBackend(":memory:")
    setup_workspace(backend)
    with pytest.raises(ValueError, match="share no one width"):
        backend.store_new_object(item(version=1, chunks=(b"\x01" * 20, b"\x02" * 32)))
    assert backend.get_current("ws1:a.txt") is None
    backend.close()


def test_closed_backend_is_not_scraped(metadata_backend):
    """A backend that is closed but not yet collected must not break /metrics."""
    from repro.telemetry.registry import REGISTRY

    metadata_backend.close()
    REGISTRY.snapshot()  # sqlite cannot count rows on a closed database
