"""Publisher-side cast buffering: backpressure, deadlines, ordering, identity.

Covers the :class:`~repro.objectmq.buffering.PublishBuffer` in isolation
(against a recording fake) and wired through an ObjectMQ Broker against a
real SyncService — including the byte-identity requirement: buffered
publishing must produce exactly the histories an unbuffered client does.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.mom.message import Message
from repro.objectmq import Broker
from repro.objectmq.buffering import PublishBuffer
from repro.sync import (
    SYNC_SERVICE_OID,
    SYNC_SERVICE_PREFETCH,
    SyncService,
    SyncServiceApi,
    Workspace,
)
from repro.sync.models import STATUS_CHANGED, STATUS_NEW, ItemMetadata


def wait_for(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class RecordingMom:
    """Fake broker recording publish / publish_many calls thread-safely."""

    def __init__(self):
        self.lock = threading.Lock()
        self.batches = []
        self.singles = []

    def publish(self, exchange_name, routing_key, message):
        with self.lock:
            self.singles.append((exchange_name, routing_key, message))
        return 1

    def publish_many(self, items):
        batch = list(items)
        with self.lock:
            self.batches.append(batch)
        return len(batch)

    def delivered(self):
        with self.lock:
            flat = [item for batch in self.batches for item in batch]
            return flat + list(self.singles)


def test_size_flush_happens_inline_with_backpressure():
    mom = RecordingMom()
    buffer = PublishBuffer(mom, max_messages=4, flush_deadline=60.0)
    for i in range(3):
        buffer.publish("", "q", Message(f"m{i}".encode()))
    assert len(buffer) == 3
    assert mom.delivered() == []
    # The filling publish flushes on the producing thread, synchronously.
    buffer.publish("", "q", Message(b"m3"))
    assert len(buffer) == 0
    assert len(mom.batches) == 1
    assert [m.body for _, _, m in mom.batches[0]] == [b"m0", b"m1", b"m2", b"m3"]
    assert buffer.size_flushes == 1
    buffer.close()


def test_deadline_flush_drains_a_trickle():
    mom = RecordingMom()
    buffer = PublishBuffer(mom, max_messages=1000, flush_deadline=0.05)
    buffer.publish("", "q", Message(b"lonely"))
    assert wait_for(lambda: len(mom.delivered()) == 1, timeout=2.0)
    assert buffer.deadline_flushes >= 1
    assert len(buffer) == 0
    buffer.close()


def test_flush_preserves_fifo_order_and_destinations():
    mom = RecordingMom()
    buffer = PublishBuffer(mom, max_messages=100, flush_deadline=60.0)
    buffer.publish("", "q1", Message(b"a"))
    buffer.publish("fan", "key", Message(b"b"))
    buffer.publish("", "q1", Message(b"c"))
    assert buffer.flush() == 3
    assert [(e, k, m.body) for e, k, m in mom.batches[0]] == [
        ("", "q1", b"a"),
        ("fan", "key", b"b"),
        ("", "q1", b"c"),
    ]
    buffer.close()


def test_close_flushes_pending_casts():
    mom = RecordingMom()
    buffer = PublishBuffer(mom, max_messages=100, flush_deadline=60.0)
    buffer.publish("", "q", Message(b"pending"))
    buffer.close()
    assert [m.body for _, _, m in mom.delivered()] == [b"pending"]
    # Casts after close degrade to direct publishes — never dropped.
    buffer.publish("", "q", Message(b"late"))
    assert mom.singles[0][2].body == b"late"


def test_constructor_validates_arguments():
    with pytest.raises(ValueError):
        PublishBuffer(RecordingMom(), max_messages=0)
    with pytest.raises(ValueError):
        PublishBuffer(RecordingMom(), flush_deadline=0.0)


def test_flush_counters_scrape():
    mom = RecordingMom()
    buffer = PublishBuffer(mom, max_messages=2, flush_deadline=60.0, name="c1")
    buffer.publish("", "q", Message(b"x"))
    buffer.publish("", "q", Message(b"y"))
    snapshot = buffer._scrape()
    assert snapshot["flushes"] == 1.0
    assert snapshot["flushed_messages"] == 2.0
    assert snapshot["pending"] == 0.0
    buffer.close()


# -- wired through the ObjectMQ Broker ----------------------------------------


def proposal(name, version, status, device="dev-1"):
    return ItemMetadata(
        item_id=f"ws:{name}",
        workspace_id="ws",
        version=version,
        filename=name,
        status=status,
        size=4,
        checksum=f"ck-{name}-{version}",
        chunks=[f"f-{name}-{version}"],
        modified_at=1.0,
        device_id=device,
    )


def run_commit_stream(environment):
    """Drive a fixed commit sequence through a (possibly buffered) client.

    Returns the per-item metadata histories the service ends up with.
    """
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    metadata.create_user("alice")
    metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
    server = Broker(mom)
    service = SyncService(metadata, server)
    server.bind(SYNC_SERVICE_OID, service, prefetch=SYNC_SERVICE_PREFETCH)
    client = Broker(mom, environment=environment)
    proxy = client.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    try:
        for i in range(8):
            proxy.commit_request("ws", "dev-1", [proposal(f"f{i}.txt", 1, STATUS_NEW)])
        for i in range(8):
            proxy.commit_request(
                "ws", "dev-1", [proposal(f"f{i}.txt", 2, STATUS_CHANGED)]
            )
        client.flush_publishes()
        assert wait_for(lambda: service.commit_count == 16)
        # A sync call after buffered casts must observe all of them
        # (flush-before-sync ordering).
        changes = proxy.get_changes("ws")
        histories = {
            item.item_id: [
                (m.version, m.status, m.checksum, tuple(m.chunks))
                for m in metadata.item_history(item.item_id)
            ]
            for item in changes
        }
        return {item.item_id: item for item in changes}, histories
    finally:
        client.close()
        server.close()
        mom.close()


def test_buffered_histories_identical_to_unbuffered():
    plain_items, plain_histories = run_commit_stream(environment=None)
    buffered_items, buffered_histories = run_commit_stream(
        environment={"publish_buffer": 64, "publish_flush_deadline": 0.002}
    )
    assert buffered_histories == plain_histories
    assert set(buffered_items) == set(plain_items)
    for item_id, item in buffered_items.items():
        assert item == plain_items[item_id]


def test_buffered_casts_survive_broker_close():
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    metadata.create_user("alice")
    metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
    server = Broker(mom)
    service = SyncService(metadata, server)
    server.bind(SYNC_SERVICE_OID, service)
    # Huge buffer + long deadline: nothing would flush on its own.
    client = Broker(
        mom, environment={"publish_buffer": 10_000, "publish_flush_deadline": 30.0}
    )
    proxy = client.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    proxy.commit_request("ws", "dev-1", [proposal("held.txt", 1, STATUS_NEW)])
    client.close()  # at-least-once on shutdown: close must flush
    assert wait_for(lambda: service.commit_count == 1)
    server.close()
    mom.close()


def test_unbuffered_broker_publish_paths_are_nops():
    mom = MessageBroker()
    broker = Broker(mom)
    assert broker.publish_buffer is None
    assert broker.flush_publishes() == 0
    assert not broker.publish_buffered("", "q", Message(b"x"))
    broker.close()
    mom.close()
