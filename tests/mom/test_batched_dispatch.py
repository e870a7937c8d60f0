"""Runs of deliveries: where they form, and requeue ordering.

These tests pin the dispatch core: one lock cycle fills every open
prefetch window, a consumer's run is whatever its mailbox held when it
woke, delivery tags are queue-scoped, and requeue-on-cancel splices the
whole unacked window back head-of-queue in original order.
"""

from __future__ import annotations

import threading

import pytest

from repro.mom.broker_server import MessageBroker
from repro.mom.message import Message
from repro.mom.queue import MessageQueue

from tests.mom.test_queue import BlockingRunHandler, Collector, drain_queue, drain_wait


def test_wide_prefetch_window_filled_in_one_cycle(queue):
    collector = Collector()  # no acks: the window stays occupied
    queue.add_consumer("c1", collector, prefetch=8)
    queue.put_many([Message(f"m{i}".encode()) for i in range(8)])
    assert drain_wait(lambda: collector.count() == 8)
    assert collector.bodies() == [f"m{i}".encode() for i in range(8)]
    assert queue.unacked_count == 8


@pytest.mark.parametrize(
    "prefetch, run_lengths",
    [(256, [1, 199]), (1, [1] * 200)],
    ids=["prefetch-256", "prefetch-1"],
)
def test_a_run_is_the_backlog_a_busy_consumer_wakes_to(queue, prefetch, run_lengths):
    handler = BlockingRunHandler(queue)
    queue.add_consumer("c1", None, prefetch=prefetch, batch_callback=handler)
    queue.put(Message(b"m0"))
    assert handler.entered.wait(timeout=2.0)
    # Published one at a time while the handler is busy: the dispatcher
    # never holds two of them, the mailbox (within prefetch) does.
    for i in range(1, 200):
        queue.put(Message(f"m{i}".encode()))
    handler.release.set()
    assert drain_wait(lambda: queue.acked_count == 200)
    assert [len(run) for run in handler.runs] == run_lengths
    assert [body for run in handler.runs for body in run] == [
        f"m{i}".encode() for i in range(200)
    ]


def test_stop_behind_a_backlog_ends_the_thread_after_that_run(queue):
    handler = BlockingRunHandler(queue)
    consumer = queue.add_consumer("c1", None, prefetch=8, batch_callback=handler)
    queue.put(Message(b"m0"))
    assert handler.entered.wait(timeout=2.0)
    queue.put_many([Message(b"m1"), Message(b"m2"), Message(b"m3")])
    consumer.stop()
    queue.put(Message(b"m4"))  # behind the stop: never handled
    handler.release.set()
    consumer.join(timeout=2.0)
    assert not consumer._thread.is_alive()
    assert handler.runs == [[b"m0"], [b"m1", b"m2", b"m3"]]


def test_put_many_preserves_fifo_and_counts(queue):
    queue.put_many([Message(b"a"), Message(b"b")])
    queue.put_many([])
    queue.put_many([Message(b"c")])
    assert queue.published_count == 3
    assert [m.body for m in drain_queue(queue)] == [b"a", b"b", b"c"]


def test_delivery_tags_are_queue_scoped(request):
    q1, q2 = MessageQueue("q1"), MessageQueue("q2")
    request.addfinalizer(q1.close)
    request.addfinalizer(q2.close)
    col1, col2 = Collector(), Collector()
    q1.add_consumer("c", col1, prefetch=4)
    q2.add_consumer("c", col2, prefetch=4)
    q1.put_many([Message(b"x"), Message(b"y"), Message(b"z")])
    q2.put(Message(b"w"))
    assert drain_wait(lambda: col1.count() == 3 and col2.count() == 1)
    with col1.lock:
        assert [d.delivery_tag for d in col1.deliveries] == [1, 2, 3]
    with col2.lock:
        # A fresh queue starts its own tag sequence at 1 — tags are not
        # drawn from a process-global counter.
        assert [d.delivery_tag for d in col2.deliveries] == [1]


def test_cancel_requeues_whole_batch_in_original_order(queue):
    collector = Collector()  # never acks
    queue.add_consumer("c1", collector, prefetch=4)
    originals = [Message(f"m{i}".encode()) for i in range(4)]
    queue.put_many(originals)
    assert drain_wait(lambda: collector.count() == 4)
    queue.cancel_consumer("c1")
    # Same message objects (payload untouched), redelivered flag set,
    # back at the head in original delivery order.
    survivor = Collector(queue)
    queue.add_consumer("c2", survivor, prefetch=4)
    assert drain_wait(lambda: survivor.count() == 4)
    with survivor.lock:
        redelivered = [d.message for d in survivor.deliveries]
    assert [m.body for m in redelivered] == [m.body for m in originals]
    assert all(m is o for m, o in zip(redelivered, originals))
    assert all(m.redelivered for m in redelivered)
    assert queue.redelivered_count == 4


def test_cancel_mid_batch_requeues_unacked_ahead_of_ready(queue):
    collector = Collector()
    queue.add_consumer("c1", collector, prefetch=4)
    queue.put_many([Message(f"m{i}".encode()) for i in range(6)])
    assert drain_wait(lambda: collector.count() == 4)
    assert len(queue) == 2  # m4, m5 still ready
    # Crash with the batch half-processed: the 4 in-flight messages land
    # ahead of the untouched ready tail, and only they carry the flag.
    queue.cancel_consumer("c1")
    drained = drain_queue(queue)
    assert [m.body for m in drained] == [b"m0", b"m1", b"m2", b"m3", b"m4", b"m5"]
    assert [m.redelivered for m in drained] == [True] * 4 + [False] * 2
    assert queue.redelivered_count == 4
    assert queue.unacked_count == 0


def test_ack_bookkeeping_under_batched_dispatch(queue):
    collector = Collector()
    queue.add_consumer("c1", collector, prefetch=8)
    queue.put_many([Message(f"m{i}".encode()) for i in range(5)])
    assert drain_wait(lambda: collector.count() == 5)
    assert queue.unacked_count == 5
    with collector.lock:
        tags = [d.delivery_tag for d in collector.deliveries]
    for tag in tags:
        assert queue.ack(tag)
    assert not queue.ack(tags[0])  # double-ack of a batched tag is rejected
    assert queue.unacked_count == 0
    assert queue.acked_count == 5
    assert queue.delivered_count == 5


def test_ack_many_settles_whole_window_in_one_lock_cycle(queue):
    collector = Collector()
    queue.add_consumer("c1", collector, prefetch=8)
    queue.put_many([Message(f"m{i}".encode()) for i in range(6)])
    assert drain_wait(lambda: collector.count() == 6)
    with collector.lock:
        tags = [d.delivery_tag for d in collector.deliveries]
    cycles_before = queue.dispatch_cycles
    assert queue.ack_many(tags) == tags
    # One dispatch ran for the whole settled window, not one per ack.
    assert queue.dispatch_cycles == cycles_before + 1
    assert queue.unacked_count == 0
    assert queue.acked_count == 6
    # Settled tags behave exactly like individually acked ones.
    assert not queue.ack(tags[0])
    assert queue.ack_many(tags) == []


def test_ack_many_skips_tags_requeued_by_a_crash(queue):
    collector = Collector()
    queue.add_consumer("c1", collector, prefetch=4)
    queue.put_many([Message(b"a"), Message(b"b")])
    assert drain_wait(lambda: collector.count() == 2)
    with collector.lock:
        tags = [d.delivery_tag for d in collector.deliveries]
    # Crash before the batch ack: both messages flow back to ready.
    queue.cancel_consumer("c1")
    assert queue.ack_many(tags) == []  # stale tags are ignored, not fatal
    assert len(queue) == 2
    assert queue.acked_count == 0


def test_batch_callback_receives_whole_dispatch_batches(queue):
    batches = []
    lock = threading.Lock()

    def on_batch(deliveries):
        with lock:
            batches.append(deliveries)
        queue.ack_many([d.delivery_tag for d in deliveries])

    queue.add_consumer("c1", lambda d: None, prefetch=8, batch_callback=on_batch)
    queue.put_many([Message(f"m{i}".encode()) for i in range(8)])
    assert drain_wait(lambda: queue.acked_count == 8)
    with lock:
        # Where the window is cut into runs depends on when the consumer
        # thread woke; that they are lists, in order and within prefetch
        # does not.
        assert all(0 < len(batch) <= 8 for batch in batches)
        assert [d.message.body for batch in batches for d in batch] == [
            f"m{i}".encode() for i in range(8)
        ]


def test_broker_ack_many_settles_each_live_tag_once():
    broker = MessageBroker()
    broker.declare_queue("jobs")
    collector = Collector()
    broker.consume("jobs", collector, consumer_tag="c1", prefetch=8)
    for i in range(4):
        broker.publish("", "jobs", Message(f"m{i}".encode()))
    assert drain_wait(lambda: collector.count() == 4)
    assert broker.queue_stats("jobs")["unacked"] == 4
    with collector.lock:
        deliveries = list(collector.deliveries)
    # Settle the first three as a batch, leave the last unacked: exactly
    # the settled deliveries leave the consumer's window.
    assert broker.ack_many(deliveries[:3]) == 3
    stats = broker.queue_stats("jobs")
    assert (stats["acked"], stats["unacked"], stats["ready"]) == (3, 1, 0)
    assert broker.stats.snapshot()["acks"] == 3
    # A second settle of the same tags is a no-op, not a double ack.
    assert broker.ack_many(deliveries[:3]) == 0
    broker.close()


def test_redelivered_message_keeps_flag_through_second_cancel(queue):
    first = Collector()
    queue.add_consumer("c1", first, prefetch=2)
    queue.put_many([Message(b"a"), Message(b"b")])
    assert drain_wait(lambda: first.count() == 2)
    queue.cancel_consumer("c1")
    second = Collector()
    queue.add_consumer("c2", second, prefetch=2)
    assert drain_wait(lambda: second.count() == 2)
    queue.cancel_consumer("c2")
    messages = drain_queue(queue)
    assert [m.body for m in messages] == [b"a", b"b"]
    assert all(m.redelivered for m in messages)
    assert queue.redelivered_count == 4
