"""Tests for the Indexer: chunk → dedup → proposal pipeline (§4.1)."""

from __future__ import annotations

import hashlib

import pytest

from repro.client import FixedChunker, Indexer, LocalDatabase, LocalFileRecord
from repro.client.compression import NullCompressor
from repro.sync.models import STATUS_CHANGED, STATUS_DELETED, STATUS_NEW, make_item_id


@pytest.fixture
def indexer():
    return Indexer(
        LocalDatabase(), chunker=FixedChunker(chunk_size=8), compressor=NullCompressor()
    )


def test_new_file_proposal(indexer):
    content = b"0123456789abcdef"  # two 8-byte chunks
    result = indexer.index_change("ws", "dev", "a.txt", content)
    proposal = result.proposal
    assert proposal.item_id == make_item_id("ws", "a.txt")
    assert proposal.version == 1
    assert proposal.status == STATUS_NEW
    assert proposal.size == 16
    assert len(proposal.chunks) == 2
    assert proposal.checksum == hashlib.sha1(content).digest()
    assert len(result.uploads) == 2
    assert result.upload_raw_bytes == 16


def test_update_increments_version(indexer):
    indexer.local_db.upsert(
        LocalFileRecord(item_id=make_item_id("ws", "a.txt"), path="a.txt", version=3)
    )
    result = indexer.index_change("ws", "dev", "a.txt", b"new")
    assert result.proposal.version == 4
    assert result.proposal.status == STATUS_CHANGED


def test_pending_version_chains_rapid_edits(indexer):
    indexer.local_db.upsert(
        LocalFileRecord(
            item_id=make_item_id("ws", "a.txt"),
            path="a.txt",
            version=1,
            pending_version=2,
        )
    )
    result = indexer.index_change("ws", "dev", "a.txt", b"newer")
    assert result.proposal.version == 3


def test_dedup_skips_known_chunks(indexer):
    content = b"AAAAAAAA" + b"BBBBBBBB"
    first = indexer.index_change("ws", "dev", "a.txt", content)
    indexer.local_db.remember_fingerprints(
        fp for fp, _payload in first.uploads
    )
    # Second file shares chunk A.
    second = indexer.index_change("ws", "dev", "b.txt", b"AAAAAAAA" + b"CCCCCCCC")
    uploaded = [fp for fp, _ in second.uploads]
    assert len(uploaded) == 1
    assert len(second.deduplicated) == 1
    # Metadata still references both chunks in order.
    assert len(second.proposal.chunks) == 2


def test_repeated_chunk_within_one_file_uploaded_once(indexer):
    content = b"XXXXXXXX" * 3
    result = indexer.index_change("ws", "dev", "a.txt", content)
    assert len(result.uploads) == 1
    assert len(result.proposal.chunks) == 3


def test_compression_applied_to_uploads():
    from repro.client.compression import GzipCompressor

    indexer = Indexer(
        LocalDatabase(), chunker=FixedChunker(chunk_size=1024), compressor=GzipCompressor()
    )
    content = b"compressible " * 500
    result = indexer.index_change("ws", "dev", "a.txt", content)
    assert result.upload_bytes < result.upload_raw_bytes


def test_delete_proposal(indexer):
    indexer.local_db.upsert(
        LocalFileRecord(item_id=make_item_id("ws", "a.txt"), path="a.txt", version=2)
    )
    result = indexer.index_delete("ws", "dev", "a.txt")
    assert result.proposal.status == STATUS_DELETED
    assert result.proposal.version == 3
    assert result.proposal.chunks == ()
    assert result.uploads == []


def test_delete_unknown_path_still_proposes(indexer):
    result = indexer.index_delete("ws", "dev", "ghost.txt")
    assert result.proposal.version == 1
    assert result.proposal.status == STATUS_DELETED


def test_empty_file_has_one_chunk(indexer):
    result = indexer.index_change("ws", "dev", "empty.txt", b"")
    assert len(result.proposal.chunks) == 1
