"""Tests for the SQS-semantics service and its ObjectMQ adapter."""

from __future__ import annotations

import time

import pytest

from repro.errors import QueueNotFound
from repro.mom import Message
from repro.mom.sqs import SqsBrokerAdapter, SqsService


# -- SqsService / SqsQueue semantics ----------------------------------------------


def test_send_receive_delete_cycle():
    service = SqsService()
    queue = service.create_queue("q")
    queue.send(Message(b"payload"))
    handle, message = queue.receive()
    assert message.body == b"payload"
    assert queue.approximate_visible == 0
    assert queue.approximate_in_flight == 1
    assert queue.delete(handle) is True
    assert queue.approximate_in_flight == 0


def test_receive_empty_returns_none():
    queue = SqsService().create_queue("q")
    assert queue.receive(wait_seconds=0.05) is None


def test_long_polling_catches_late_message():
    import threading

    queue = SqsService().create_queue("q")
    results = []

    def receiver():
        results.append(queue.receive(wait_seconds=2.0))

    thread = threading.Thread(target=receiver)
    thread.start()
    time.sleep(0.05)
    queue.send(Message(b"late"))
    thread.join(timeout=3.0)
    assert results and results[0][1].body == b"late"


def test_visibility_timeout_reappears_message():
    queue = SqsService(visibility_timeout=0.1).create_queue("q")
    queue.send(Message(b"x"))
    handle, _message = queue.receive()
    # Not deleted: after the visibility timeout it reappears.
    received = queue.receive(wait_seconds=1.0)
    assert received is not None
    assert received[1].redelivered is True
    assert queue.reappeared_count == 1
    # The old receipt handle is dead.
    assert queue.delete(handle) is False


def test_delete_before_timeout_prevents_redelivery():
    queue = SqsService(visibility_timeout=0.1).create_queue("q")
    queue.send(Message(b"x"))
    handle, _ = queue.receive()
    queue.delete(handle)
    assert queue.receive(wait_seconds=0.25) is None


def test_change_visibility_zero_requeues_immediately():
    queue = SqsService(visibility_timeout=30.0).create_queue("q")
    queue.send(Message(b"x"))
    handle, _ = queue.receive()
    assert queue.change_visibility(handle, 0.0)
    received = queue.receive(wait_seconds=0.5)
    assert received is not None


def test_fifo_order_preserved():
    queue = SqsService().create_queue("q")
    for i in range(5):
        queue.send(Message(bytes([i])))
    got = [queue.receive()[1].body for _ in range(5)]
    assert got == [bytes([i]) for i in range(5)]


def test_service_queue_management():
    service = SqsService()
    service.create_queue("a")
    service.create_queue("b")
    assert service.list_queues() == ["a", "b"]
    service.delete_queue("a")
    assert not service.queue_exists("a")
    with pytest.raises(QueueNotFound):
        service.get_queue("a")


# -- adapter specifics (shared surface: test_transport_conformance.py) ----------------


@pytest.fixture
def sqs_mom():
    adapter = SqsBrokerAdapter(visibility_timeout=1.0)
    yield adapter
    adapter.close()


def test_adapter_unacked_reappears_after_visibility(sqs_mom):
    sqs_mom.declare_queue("work")
    seen = []
    sqs_mom.consume("work", seen.append, consumer_tag="never-acks")
    sqs_mom.publish("", "work", Message(b"retry-me"))
    deadline = time.monotonic() + 5.0
    while len(seen) < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    # Delivered, never acked, visibility (1s) expired, redelivered.
    assert len(seen) >= 2
    assert seen[1].message.redelivered
