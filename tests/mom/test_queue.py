"""Unit tests for MessageQueue: dispatch, acks, redelivery, prefetch."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DuplicateConsumer
from repro.mom.message import Message
from repro.mom.queue import MessageQueue


def drain_wait(predicate, timeout=2.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def drain_queue(queue):
    """Take every ready message off *queue*, in order.

    A passing auto-ack consumer is handed the backlog on this thread
    before ``add_consumer`` returns, and is cancelled at once.
    """
    taken = []
    queue.add_consumer("drain", lambda d: taken.append(d.message), auto_ack=True)
    queue.cancel_consumer("drain")
    return taken


class Collector:
    """Test consumer callback collecting deliveries thread-safely."""

    def __init__(self, queue=None, auto_ack_via=None):
        self.lock = threading.Lock()
        self.deliveries = []
        self.queue = queue

    def __call__(self, delivery):
        with self.lock:
            self.deliveries.append(delivery)
        if self.queue is not None:
            self.queue.ack(delivery.delivery_tag)

    def count(self):
        with self.lock:
            return len(self.deliveries)

    def bodies(self):
        with self.lock:
            return [d.message.body for d in self.deliveries]


class BlockingRunHandler:
    """An acking ``batch_callback`` that parks inside its first run."""

    def __init__(self, queue):
        self.queue = queue
        self.runs = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, deliveries):
        self.runs.append([d.message.body for d in deliveries])
        self.entered.set()
        assert self.release.wait(timeout=5.0)
        self.queue.ack_many([d.delivery_tag for d in deliveries])


def test_push_mode_delivers_to_consumer(queue):
    collector = Collector(queue)
    queue.add_consumer("c1", collector)
    queue.put(Message(b"x"))
    assert drain_wait(lambda: collector.count() == 1)


def test_round_robin_between_idle_consumers(queue):
    c1, c2 = Collector(queue), Collector(queue)
    queue.add_consumer("c1", c1)
    queue.add_consumer("c2", c2)
    for i in range(10):
        queue.put(Message(bytes([i])))
    assert drain_wait(lambda: c1.count() + c2.count() == 10)
    # Work is shared: each idle consumer receives some of the stream.
    # (Exact proportions depend on ack timing, so only participation is
    # asserted — AMQP guarantees delivery to *an* idle consumer, not
    # strict fairness.)
    assert c1.count() >= 1
    assert c2.count() >= 1


def test_prefetch_one_skips_busy_consumer(queue):
    release = threading.Event()
    slow_got = []

    def slow(delivery):
        slow_got.append(delivery)
        release.wait(5.0)
        queue.ack(delivery.delivery_tag)

    fast = Collector(queue)
    queue.add_consumer("slow", slow, prefetch=1)
    queue.add_consumer("fast", fast, prefetch=1)

    for i in range(6):
        queue.put(Message(bytes([i])))
    # The slow consumer holds exactly one unacked message; everything
    # else must flow to the idle (fast) consumer.
    assert drain_wait(lambda: fast.count() == 5)
    assert len(slow_got) == 1
    release.set()


def test_unacked_requeued_on_cancel_with_redelivered_flag(queue):
    got = []

    def never_ack(delivery):
        got.append(delivery)

    queue.add_consumer("c1", never_ack)
    queue.put(Message(b"payload"))
    assert drain_wait(lambda: len(got) == 1)
    assert queue.unacked_count == 1

    queue.cancel_consumer("c1")
    assert queue.unacked_count == 0
    assert len(queue) == 1
    (requeued,) = drain_queue(queue)
    assert requeued.body == b"payload"
    assert requeued.redelivered is True
    assert queue.redelivered_count == 1


def test_ack_unknown_tag_returns_false(queue):
    assert queue.ack(999999) is False


def test_duplicate_consumer_tag_rejected(queue):
    queue.add_consumer("dup", lambda d: None)
    with pytest.raises(DuplicateConsumer):
        queue.add_consumer("dup", lambda d: None)


def test_consumer_exception_does_not_kill_dispatch(queue):
    seen = []

    def flaky(delivery):
        seen.append(delivery)
        queue.ack(delivery.delivery_tag)
        if len(seen) == 1:
            raise RuntimeError("boom")

    queue.add_consumer("c1", flaky)
    queue.put(Message(b"1"))
    queue.put(Message(b"2"))
    assert drain_wait(lambda: len(seen) == 2)


def test_counters(queue):
    collector = Collector(queue)
    queue.add_consumer("c", collector)
    for _ in range(3):
        queue.put(Message(b"m"))
    assert drain_wait(lambda: queue.acked_count == 3)
    assert queue.published_count == 3
    assert queue.delivered_count == 3


def test_auto_ack_consumer_never_tracks_unacked(queue):
    got = []
    queue.add_consumer("c", lambda d: got.append(d), auto_ack=True)
    queue.put(Message(b"x"))
    assert drain_wait(lambda: len(got) == 1)
    assert queue.unacked_count == 0
    assert queue.acked_count == 1


def test_auto_ack_handler_runs_on_the_publishing_thread_without_the_lock(queue):
    """No thread, no mailbox: ``put`` returns after the handler has run,
    and the handler may use the queue it is consuming from."""
    seen = []

    def handler(delivery):
        lock_free = queue._lock.acquire(timeout=1.0)
        if lock_free:
            queue._lock.release()
        seen.append((delivery.message.body, threading.current_thread(), lock_free))

    consumer = queue.add_consumer("c", handler, auto_ack=True)
    before = {t.name for t in threading.enumerate()}
    queue.put(Message(b"a"))
    queue.put(Message(b"b"))
    me = threading.current_thread()
    assert seen == [(b"a", me, True), (b"b", me, True)]
    assert {t.name for t in threading.enumerate()} == before
    assert consumer._mailbox is None


def test_auto_ack_backlog_runs_on_the_subscribing_thread(queue):
    queue.put(Message(b"1"))
    queue.put(Message(b"2"))
    got = []
    queue.add_consumer("c", lambda d: got.append(d.message.body), auto_ack=True)
    assert got == [b"1", b"2"] and len(queue) == 0


def test_auto_ack_handler_error_is_not_the_publishers(queue):
    def handler(delivery):
        raise RuntimeError("handler bug")

    queue.add_consumer("c", handler, auto_ack=True)
    queue.put(Message(b"x"))  # logged, not raised
    assert queue.acked_count == 1


def test_close_stops_consumers(queue):
    collector = Collector(queue)
    queue.add_consumer("c", collector)
    queue.close()
    assert queue.consumer_count == 0


def test_cancel_requeues_unacked_ahead_of_ready_in_original_order(queue):
    """§3.4 crash recovery: the crashed consumer's in-flight deliveries go
    back to the *head* of the queue, in their original order, ahead of
    messages that were still waiting in the ready buffer."""
    held = []
    queue.add_consumer("c1", lambda d: held.append(d), prefetch=3)
    for body in (b"m1", b"m2", b"m3", b"m4"):
        queue.put(Message(body))
    # Prefetch 3: m1-m3 delivered (unacked), m4 still ready.
    assert drain_wait(lambda: len(held) == 3)
    assert queue.unacked_count == 3 and len(queue) == 1

    queue.cancel_consumer("c1")
    assert queue.redelivered_count == 3
    drained = drain_queue(queue)
    assert [m.body for m in drained] == [b"m1", b"m2", b"m3", b"m4"]
    assert [m.redelivered for m in drained] == [True, True, True, False]


class TestQueueMetricsSource:
    """Depth high-water-mark / dispatch-cycle gauges ride the queue lifecycle."""

    def _series(self, name):
        from repro.telemetry.registry import get_registry

        return {
            k: v
            for k, v in get_registry().snapshot().items()
            if k.startswith("mom_queue_") and f'queue="{name}"' in k
        }

    def test_depth_high_water_and_dispatch_cycles(self):
        queue = MessageQueue("hwm-q")
        try:
            for i in range(5):
                queue.put(Message(f"m{i}".encode()))
            assert queue.depth_high_water == 5
            assert queue.dispatch_cycles == 5
            # Draining does not lower the high-water mark; the drain's
            # subscribe and cancel are one dispatch cycle each.
            assert len(drain_queue(queue)) == 5
            assert queue.depth_high_water == 5
            series = self._series("hwm-q")
            assert series['mom_queue_depth_high_water{queue="hwm-q"}'] == 5.0
            assert series['mom_queue_dispatch_cycles{queue="hwm-q"}'] == 7.0
        finally:
            queue.close()

    def test_source_unregistered_on_close(self):
        queue = MessageQueue("lifecycle-q")
        assert self._series("lifecycle-q")
        queue.close()
        assert self._series("lifecycle-q") == {}
        queue.close()  # idempotent

    def test_exclusive_queue_registers_no_source(self):
        from repro.telemetry.registry import get_registry

        before = get_registry().source_count()
        queue = MessageQueue("resp.abc123", exclusive=True)
        try:
            assert get_registry().source_count() == before
        finally:
            queue.close()


def test_slow_acking_consumer_holds_at_most_its_prefetch(queue):
    """A stuck acking consumer is owed at most ``prefetch`` deliveries.

    Its mailbox and its handler together hold 8; the other 9,992 messages
    of the burst wait in the queue's ready buffer, where ``len(queue)`` and
    ``depth_high_water`` can see them.  (An *auto-ack* consumer holds
    nothing: its handler runs on the publishing thread.)
    """
    handler = BlockingRunHandler(queue)
    consumer = queue.add_consumer("c1", None, prefetch=8, batch_callback=handler)
    queue.put(Message(b"0"))
    assert handler.entered.wait(timeout=2.0)
    for i in range(1, 10_000):
        queue.put(Message(str(i).encode()))
    assert handler.runs == [[b"0"]]
    assert consumer._mailbox.qsize() == 7
    assert queue.unacked_count == 8
    assert len(queue) == queue.depth_high_water == 9_992
    handler.release.set()
    assert drain_wait(lambda: queue.acked_count == 10_000, timeout=10.0)
    assert max(len(run) for run in handler.runs) <= 8
    assert [int(body) for run in handler.runs for body in run] == list(range(10_000))
