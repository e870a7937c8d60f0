"""Tests for fixed-size and content-defined chunking (§4.1)."""

from __future__ import annotations

import hashlib
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Chunk, ContentDefinedChunker, FixedChunker
from repro.client.chunker import DEFAULT_CHUNK_SIZE


def reassemble(chunks):
    return b"".join(c.data for c in chunks)


def test_default_chunk_size_matches_paper():
    assert DEFAULT_CHUNK_SIZE == 512 * 1024
    assert FixedChunker().chunk_size == 512 * 1024


def test_fixed_chunker_exact_multiple():
    chunker = FixedChunker(chunk_size=10)
    chunks = chunker.chunk(b"0123456789" * 3)
    assert len(chunks) == 3
    assert all(c.size == 10 for c in chunks)
    assert [c.offset for c in chunks] == [0, 10, 20]


def test_fixed_chunker_trailing_partial():
    chunker = FixedChunker(chunk_size=10)
    chunks = chunker.chunk(b"x" * 25)
    assert [c.size for c in chunks] == [10, 10, 5]


def test_fixed_chunker_empty_file_single_empty_chunk():
    chunks = FixedChunker().chunk(b"")
    assert len(chunks) == 1
    assert chunks[0].data == b""
    assert chunks[0].fingerprint  # still fingerprinted


def test_fixed_identical_blocks_share_fingerprint():
    chunker = FixedChunker(chunk_size=8)
    chunks = chunker.chunk(b"ABCDEFGH" * 2)
    assert chunks[0].fingerprint == chunks[1].fingerprint


def test_fixed_boundary_shifting_problem():
    """The pathology the paper blames for UPDATE skew (Fig 7e): a small
    prepend changes *every* fixed-size chunk."""
    chunker = FixedChunker(chunk_size=4096)
    rng = random.Random(1)
    original = bytes(rng.getrandbits(8) for _ in range(64 * 1024))
    shifted = b"xx" + original
    before = {c.fingerprint for c in chunker.chunk(original)}
    after = {c.fingerprint for c in chunker.chunk(shifted)}
    assert not before & after  # no chunk survives


def test_cdc_round_trip_and_bounds():
    chunker = ContentDefinedChunker(minimum=1024, target=4096, maximum=16384)
    rng = random.Random(2)
    data = bytes(rng.getrandbits(8) for _ in range(200 * 1024))
    chunks = chunker.chunk(data)
    assert reassemble(chunks) == data
    for chunk in chunks[:-1]:
        assert 1024 <= chunk.size <= 16384
    assert chunks[-1].size <= 16384


def test_cdc_resists_boundary_shifting():
    """Content-defined boundaries survive a small prepend (most chunks
    keep their fingerprints) — the fix for the boundary-shifting problem."""
    chunker = ContentDefinedChunker(minimum=512, target=2048, maximum=8192)
    rng = random.Random(3)
    original = bytes(rng.getrandbits(8) for _ in range(128 * 1024))
    shifted = b"zz" + original
    before = {c.fingerprint for c in chunker.chunk(original)}
    after = {c.fingerprint for c in chunker.chunk(shifted)}
    shared = len(before & after)
    assert shared / len(before) > 0.5


def test_cdc_deterministic():
    chunker_a = ContentDefinedChunker(minimum=512, target=2048, maximum=8192)
    chunker_b = ContentDefinedChunker(minimum=512, target=2048, maximum=8192)
    data = os.urandom(50 * 1024)
    assert [c.fingerprint for c in chunker_a.chunk(data)] == [
        c.fingerprint for c in chunker_b.chunk(data)
    ]


def test_cdc_empty_file():
    chunks = ContentDefinedChunker().chunk(b"")
    assert len(chunks) == 1 and chunks[0].data == b""


def test_cdc_validates_bounds():
    with pytest.raises(ValueError):
        ContentDefinedChunker(minimum=100, target=50, maximum=200)


@pytest.mark.parametrize(
    "chunker",
    [FixedChunker(chunk_size=1000), ContentDefinedChunker(minimum=1024, target=4096, maximum=16384)],
    ids=["fixed", "cdc"],
)
def test_chunks_are_fingerprinted_by_sha1(chunker):
    data = random.Random(3).randbytes(40_000)
    chunks = chunker.chunk(data)
    assert len(chunks) > 1
    for chunk in chunks:
        assert chunk.fingerprint == hashlib.sha1(chunk.data).digest()
    assert chunker.chunk(b"")[0].fingerprint == hashlib.sha1(b"").digest()


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=30_000), chunk_size=st.integers(min_value=1, max_value=9999))
def test_property_fixed_chunks_reassemble(data, chunk_size):
    chunks = FixedChunker(chunk_size=chunk_size).chunk(data)
    assert reassemble(chunks) == data
    offsets = [c.offset for c in chunks]
    assert offsets == sorted(offsets)


@settings(max_examples=25, deadline=None)
@given(data=st.binary(min_size=1, max_size=60_000))
def test_property_cdc_chunks_reassemble(data):
    chunker = ContentDefinedChunker(minimum=256, target=1024, maximum=4096)
    chunks = chunker.chunk(data)
    assert reassemble(chunks) == data
