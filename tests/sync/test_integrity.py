"""Tests for end-to-end chunk integrity verification."""

from __future__ import annotations

import time
import zlib

import pytest

from repro.errors import SyncError


def corrupt_object(storage, container, name, data):
    """Overwrite an object on every replica, bypassing the client."""
    key = f"{container}/{name}"
    replicas = [storage.nodes[device] for device in storage.ring.devices_for(key)]
    assert any(key in node.objects for node in replicas), f"no object {key}"
    for node in replicas:
        if key in node.objects:
            node.objects[key] = data


def test_corrupted_chunk_detected_on_download(testbed):
    c1 = testbed.client(device_id="d1")
    meta = c1.put_file("doc.txt", b"important " * 100)
    c1.wait_for_version(meta.item_id, meta.version)

    # Corrupt the stored chunk with *valid gzip* of different content, so
    # only the fingerprint check can catch it.
    evil = zlib.compress(b"evil " * 100, 1)
    corrupt_object(testbed.storage, "u-alice", meta.chunks[0].hex(), evil)

    from repro.client import StackSyncClient

    c2 = StackSyncClient(
        "alice", testbed.workspaces["alice"], testbed.mom, testbed.storage,
        device_id="d2",
    )
    with pytest.raises(SyncError, match="integrity"):
        c2.start()
    c2.stop()


def test_corruption_during_notification_does_not_crash_client(testbed):
    """A corrupted chunk hitting the push path is logged, not fatal."""
    c1 = testbed.client(device_id="d1")
    c2 = testbed.client(device_id="d2")

    base = c1.put_file("a.txt", b"A" * 500)
    assert c2.wait_for_version(base.item_id, base.version, timeout=10)

    # Pre-corrupt the chunk that the *next* version will reference: write
    # the file, then tamper before c2 downloads.  To make the race
    # deterministic, tamper with a fresh file c2 has never seen.
    meta = c1.put_file("b.txt", b"B" * 500)
    # c1 has it cached; corrupt the store before c2 fetches.
    evil = zlib.compress(b"X" * 500, 1)
    corrupt_object(testbed.storage, "u-alice", meta.chunks[0].hex(), evil)
    time.sleep(0.5)
    # c2 failed to apply (integrity), but keeps running and can sync
    # other files afterwards.
    meta2 = c1.put_file("c.txt", b"C" * 500)
    assert c2.wait_for_version(meta2.item_id, meta2.version, timeout=10)
    assert c2.fs.read("c.txt") == b"C" * 500
    assert "b.txt" not in c2.fs.list_paths() or c2.fs.read("b.txt") != b"X" * 500


def test_clean_chunks_pass_verification(testbed):
    c1 = testbed.client(device_id="d1")
    c2 = testbed.client(device_id="d2")
    meta = c1.put_file("fine.txt", b"no tampering here " * 50)
    assert c2.wait_for_version(meta.item_id, meta.version, timeout=10)
    assert c2.fs.read("fine.txt") == b"no tampering here " * 50
