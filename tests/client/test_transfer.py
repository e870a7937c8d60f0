"""ChunkTransferManager: retry, coalescing, ordered parallel reassembly."""

from __future__ import annotations

import threading
import time
from contextlib import closing

import pytest

from repro.client.chunker import FixedChunker
from repro.client.transfer import ChunkTransferManager
from repro.errors import ObjectNotFound, StorageError
from repro.storage import SwiftLikeStore


class FlakyStore:
    """Store facade that fails the first N operations with a transient error."""

    def __init__(self, inner, put_failures=0, get_failures=0):
        self.inner = inner
        self._lock = threading.Lock()
        self.put_failures = put_failures
        self.get_failures = get_failures
        self.put_attempts = 0
        self.get_attempts = 0

    def put_object(self, container, name, data):
        with self._lock:
            self.put_attempts += 1
            if self.put_failures > 0:
                self.put_failures -= 1
                raise StorageError("transient put failure")
        self.inner.put_object(container, name, data)

    def get_object(self, container, name):
        with self._lock:
            self.get_attempts += 1
            if self.get_failures > 0:
                self.get_failures -= 1
                raise StorageError("transient get failure")
        return self.inner.get_object(container, name)


class GatedStore:
    """Store facade whose GETs block until the gate opens."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.gate = gate
        self._lock = threading.Lock()
        self.get_count = 0

    def get_object(self, container, name):
        self.gate.wait(timeout=5)
        with self._lock:
            self.get_count += 1
        return self.inner.get_object(container, name)


@pytest.fixture
def store():
    s = SwiftLikeStore(node_count=2, replicas=2)
    s.create_container("c")
    return s


def manager(delays=None, **kwargs):
    """A manager whose retry backoffs are recorded in *delays*, not slept;
    closed when its ``with`` block ends."""
    recorder = [] if delays is None else delays
    return closing(ChunkTransferManager(sleep=recorder.append, **kwargs))


def test_upload_retries_transient_storage_error(store):
    flaky = FlakyStore(store, put_failures=2)
    with manager(pool_size=2, max_attempts=3) as tm:
        records = tm.upload_chunks(flaky, "c", [("fp1", b"payload")])
    assert records[0].attempts == 3
    assert flaky.put_attempts == 3
    assert store.get_object("c", "fp1") == b"payload"
    assert sum(rec.attempts - 1 for rec in records) == 2


def test_retry_delays_double_from_the_first_backoff(store):
    flaky = FlakyStore(store, put_failures=2)
    delays = []
    with manager(delays, pool_size=1, max_attempts=3) as tm:
        tm.upload_chunks(flaky, "c", [("fp1", b"payload")])
    assert delays == [pytest.approx(0.02), pytest.approx(0.04)]


def test_upload_raises_after_exhausting_attempts(store):
    flaky = FlakyStore(store, put_failures=10)
    with manager(pool_size=2, max_attempts=2) as tm:
        with pytest.raises(StorageError):
            tm.upload_chunks(flaky, "c", [("fp1", b"payload")])
        assert flaky.put_attempts == 2
        # The failed key was unregistered: a later attempt works.
        flaky.put_failures = 0
        tm.upload_chunks(flaky, "c", [("fp1", b"payload")])
    assert store.get_object("c", "fp1") == b"payload"


def test_download_retries_transient_storage_error(store):
    store.put_object("c", "fp1", b"data")
    flaky = FlakyStore(store, get_failures=1)
    with manager(pool_size=2, max_attempts=3) as tm:
        [payload] = tm.fetch_chunks(flaky, "c", ["fp1"])
    assert payload == b"data"
    assert flaky.get_attempts == 2


def test_object_not_found_is_not_retried(store):
    flaky = FlakyStore(store)
    with manager(pool_size=2, max_attempts=5) as tm:
        with pytest.raises(ObjectNotFound):
            tm.fetch_chunks(flaky, "c", ["missing"])
    assert flaky.get_attempts == 1


def test_ordered_reassembly_under_concurrency(store):
    # Chunks whose storage latency *decreases* with index: without ordered
    # reassembly, later chunks would finish (and land) first.
    fingerprints = [f"fp{i:03d}" for i in range(24)]
    for i, fp in enumerate(fingerprints):
        store.put_object("c", fp, f"piece-{i:03d}".encode())

    class SkewedStore:
        def get_object(self, container, name):
            index = int(name[2:])
            time.sleep((len(fingerprints) - index) * 0.002)
            return store.get_object(container, name)

    with manager(pool_size=8) as tm:
        pieces = tm.fetch_chunks(SkewedStore(), "c", fingerprints)
    assert pieces == [f"piece-{i:03d}".encode() for i in range(24)]


def test_decode_runs_before_caching_and_failure_propagates(store):
    store.put_object("c", "fp1", b"corrupt")
    cached = {}

    def decode(fp, payload):
        raise StorageError("integrity check failed")

    with manager(pool_size=2, max_attempts=1) as tm:
        with pytest.raises(StorageError):
            tm.fetch_chunks(
                store, "c", ["fp1"], decode=decode, on_fetched=cached.__setitem__
            )
    assert cached == {}  # rejected payloads are never cached


def test_in_flight_download_coalescing(store):
    store.put_object("c", "shared", b"S" * 64)
    gate = threading.Event()
    gated = GatedStore(store, gate)
    threading.Timer(0.05, gate.set).start()
    records = []
    with manager(pool_size=4) as tm:
        # The same fingerprint five times: all coalesce onto one GET.
        pieces = tm.fetch_chunks(gated, "c", ["shared"] * 5, record=records.append)
    assert pieces == [b"S" * 64] * 5
    assert gated.get_count == 1
    assert sum(not rec.coalesced for rec in records) == 1
    assert sum(rec.coalesced for rec in records) == 4


def test_cache_lookup_skips_download(store):
    store.put_object("c", "fp1", b"stored")
    with manager(pool_size=2) as tm:
        [payload] = tm.fetch_chunks(
            store, "c", ["fp1"], lookup={"fp1": b"cached"}.get
        )
    assert payload == b"cached"
    assert store.get_count == 0


def test_client_parallel_transfer_end_to_end(testbed):
    """A multi-chunk file syncs through the pool; counters match the store."""
    writer = testbed.client(
        device_id="w", chunker=FixedChunker(chunk_size=1024), transfer_pool_size=4
    )
    reader = testbed.client(
        device_id="r", chunker=FixedChunker(chunk_size=1024), transfer_pool_size=4
    )
    content = bytes(i % 251 for i in range(8 * 1024))  # 8 distinct chunks
    meta = writer.put_file("big.bin", content)
    assert reader.wait_for_version(meta.item_id, meta.version, timeout=10)
    assert reader.fs.read("big.bin") == content
    assert writer.stats.chunk_uploads == 8
    assert reader.stats.chunk_downloads == 8
    # Client-side accounting equals what the store itself metered.
    assert writer.stats.storage_up == testbed.storage.bytes_in
    assert reader.stats.storage_down == testbed.storage.bytes_out
    scraped = writer.stats.scrape()
    assert scraped["chunk_uploads"] == 8
    assert scraped["upload_seconds"] >= 0.0
    assert scraped["storage_up_bytes"] == testbed.storage.bytes_in
