"""At-least-once delivery by redelivery alone (paper §3.4).

The broker keeps no journal and does not survive its own crash; the one
reliability it gives is that a delivery stays unacked until its consumer
acks it, and goes back to the head of its queue, flagged ``redelivered``,
when that consumer is cancelled.  These cases pin that guarantee on the
broker surface ObjectMQ uses, across prefetch windows and both handler
kinds (a per-delivery ``callback`` and a ``batch_callback`` of runs):
nothing held is lost, nothing acked comes back, and a cancelled
consumer's late acks settle nothing.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import DeliveryError
from repro.mom import Message

from tests.mom.test_broker_server import drain, wait_for

PREFETCHES = (1, 3, 8)
STYLES = ("callback", "batch")


def bodies(count):
    return [f"m{i}".encode() for i in range(count)]


class Holder:
    """A consumer that records what it is handed and acks only on request.

    ``seen`` holds, per delivery, the ``redelivered`` flag as it was when
    the delivery arrived: the flag lives on the shared message object and
    a later cancel sets it.
    """

    def __init__(self, mom, queue_name, tag, prefetch, style, acks=False):
        self.mom = mom
        self.acks = acks
        self.lock = threading.Lock()
        self.deliveries = []
        self.seen = []
        if style == "batch":
            mom.consume(queue_name, None, tag, prefetch=prefetch, batch_callback=self.on_run)
        else:
            mom.consume(queue_name, lambda d: self.on_run([d]), tag, prefetch=prefetch)

    def on_run(self, deliveries):
        with self.lock:
            self.deliveries.extend(deliveries)
            self.seen.extend(d.message.redelivered for d in deliveries)
        if self.acks:
            self.mom.ack_many(deliveries)

    def count(self):
        with self.lock:
            return len(self.deliveries)

    def held(self):
        with self.lock:
            return list(self.deliveries)

    def bodies(self):
        return [d.message.body for d in self.held()]


def publish_all(mom, queue_name, payloads):
    for body in payloads:
        assert mom.publish("", queue_name, Message(body)) == 1


@pytest.fixture
def work(mom):
    mom.declare_queue("work")
    return mom


grid = pytest.mark.parametrize(
    "prefetch, style", [(p, s) for p in PREFETCHES for s in STYLES]
)


@grid
def test_cancel_returns_a_held_window_ahead_of_the_backlog(work, prefetch, style):
    sent = bodies(2 * prefetch + 4)
    holder = Holder(work, "work", "holder", prefetch, style)
    publish_all(work, "work", sent)
    assert wait_for(lambda: holder.count() == prefetch)
    stats = work.queue_stats("work")
    assert (stats["unacked"], stats["ready"]) == (prefetch, len(sent) - prefetch)

    work.cancel("work", "holder")
    stats = work.queue_stats("work")
    assert (stats["unacked"], stats["ready"]) == (0, len(sent))
    assert stats["redelivered"] == prefetch
    taken = drain(work, "work")
    assert [m.body for m in taken] == sent
    # The held window comes back first, as the same message objects.
    assert taken[:prefetch] == [d.message for d in holder.held()]
    assert all(taken[i] is d.message for i, d in enumerate(holder.held()))
    assert [m.redelivered for m in taken] == [True] * prefetch + [False] * (
        len(sent) - prefetch
    )


@grid
def test_a_delivery_acked_before_the_cancel_is_never_redelivered(work, prefetch, style):
    sent = bodies(2 * prefetch + 4)
    settled = (prefetch + 1) // 2
    holder = Holder(work, "work", "holder", prefetch, style)
    publish_all(work, "work", sent)
    assert wait_for(lambda: holder.count() == prefetch)
    assert work.ack_many(holder.held()[:settled]) == settled
    # The freed slots are refilled from the backlog: the window is full again.
    assert wait_for(lambda: holder.count() == prefetch + settled)
    assert work.queue_stats("work")["unacked"] == prefetch

    work.cancel("work", "holder")
    taken = [m.body for m in drain(work, "work")]
    # Exactly the settled deliveries are gone; the rest return in order.
    assert taken == sent[settled:]
    stats = work.queue_stats("work")
    assert stats["redelivered"] == prefetch
    assert stats["acked"] == len(sent)  # the drain's auto-acks plus the settled
    assert stats["unacked"] == stats["ready"] == 0


@grid
def test_a_chain_of_cancelled_consumers_loses_nothing(work, prefetch, style):
    sent = bodies(2 * prefetch + 4)
    publish_all(work, "work", sent)
    for i in range(3):
        holder = Holder(work, "work", f"crashed-{i}", prefetch, style)
        assert wait_for(lambda: holder.count() == prefetch)
        # Each crash hands the next consumer the same head of the queue.
        assert holder.bodies() == sent[:prefetch]
        assert holder.seen == [i > 0] * prefetch
        work.cancel("work", f"crashed-{i}")

    final = Holder(work, "work", "survivor", prefetch, style, acks=True)
    assert wait_for(lambda: work.queue_stats("work")["acked"] == len(sent))
    assert final.bodies() == sent
    assert final.seen == [True] * prefetch + [False] * (len(sent) - prefetch)
    stats = work.queue_stats("work")
    assert stats["redelivered"] == 3 * prefetch
    assert stats["delivered"] == 3 * prefetch + len(sent)
    assert stats["unacked"] == stats["ready"] == 0


@grid
def test_a_cancelled_consumers_late_acks_settle_nothing(work, prefetch, style):
    sent = bodies(2 * prefetch + 4)
    holder = Holder(work, "work", "crashed", prefetch, style)
    publish_all(work, "work", sent)
    assert wait_for(lambda: holder.count() == prefetch)
    work.cancel("work", "crashed")
    stale = holder.held()
    assert work.ack_many(stale) == 0
    assert work.queue_stats("work")["acked"] == 0
    assert work.stats.snapshot()["acks"] == 0

    survivor = Holder(work, "work", "survivor", prefetch, style)
    assert wait_for(lambda: survivor.count() == prefetch)
    fresh = survivor.held()
    # Redelivery hands out new tags, so a stale ack cannot settle a fresh
    # delivery of the same message.
    assert [d.message for d in fresh] == [d.message for d in stale]
    assert not {d.delivery_tag for d in fresh} & {d.delivery_tag for d in stale}
    assert work.ack_many(stale) == 0
    assert work.ack_many(fresh) == prefetch
    assert work.queue_stats("work")["acked"] == prefetch
    assert work.stats.snapshot()["acks"] == prefetch


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("crashed", ["a", "b"])
def test_a_fanout_copy_is_redelivered_only_on_the_queue_that_lost_it(mom, crashed, style):
    """Queue ``a`` (first in route order) gets the published envelope and
    ``b`` a copy; either way only the queue whose consumer was cancelled
    redelivers, and it redelivers the envelope it was given."""
    mom.declare_exchange("fan", "fanout")
    for name in ("a", "b"):
        mom.declare_queue(name)
        mom.bind_queue("fan", name)
    healthy = "b" if crashed == "a" else "a"
    holder = Holder(mom, crashed, "holder", 3, style)
    acker = Holder(mom, healthy, "acker", 3, style, acks=True)
    sent = bodies(3)
    published = [Message(body) for body in sent]
    for message in published:
        assert mom.publish("fan", "", message) == 2
    assert wait_for(lambda: holder.count() == 3)
    assert wait_for(lambda: mom.queue_stats(healthy)["acked"] == 3)

    mom.cancel(crashed, "holder")
    lost, kept = mom.queue_stats(crashed), mom.queue_stats(healthy)
    assert (lost["ready"], lost["redelivered"]) == (3, 3)
    assert (kept["ready"], kept["unacked"], kept["redelivered"]) == (0, 0, 0)
    taken = drain(mom, crashed)
    assert [m.body for m in taken] == sent and all(m.redelivered for m in taken)
    assert [m is p for m, p in zip(taken, published)] == [crashed == "a"] * 3
    assert not any(d.message.redelivered for d in acker.held())


@pytest.mark.parametrize("style", STYLES)
def test_a_handler_that_raises_leaves_its_delivery_for_a_sibling(mom, style):
    """A handler bug is logged, not acked: the message is still held, and
    a cancel gives it to a consumer that can process it."""
    mom.declare_queue("work")
    calls = []

    def broken(handed):
        calls.append(handed)
        raise RuntimeError("consumer bug")

    if style == "batch":
        mom.consume("work", None, "broken", batch_callback=broken)
    else:
        mom.consume("work", broken, "broken")
    mom.publish("", "work", Message(b"job"))
    assert wait_for(lambda: len(calls) == 1)
    assert mom.queue_stats("work")["unacked"] == 1

    survivor = Holder(mom, "work", "survivor", 1, style, acks=True)
    mom.cancel("work", "broken")
    assert wait_for(lambda: mom.queue_stats("work")["acked"] == 1)
    assert survivor.bodies() == [b"job"] and survivor.seen == [True]


@pytest.mark.parametrize(
    "cancel_order, expected",
    [
        (("first", "second"), [b"m2", b"m3", b"m0", b"m1", b"m4", b"m5"]),
        (("second", "first"), bodies(6)),
    ],
    ids=["first-then-second", "second-then-first"],
)
def test_each_cancel_puts_its_window_at_the_head(work, cancel_order, expected):
    """Requeue is per cancel: the window of the consumer cancelled last
    is the head of the queue, whatever was published first."""
    publish_all(work, "work", bodies(6))
    # A backlog is dispatched as ``consume`` subscribes: the first
    # consumer's window is taken before the second one exists.
    first = Holder(work, "work", "first", 2, "callback")
    second = Holder(work, "work", "second", 2, "callback")
    assert wait_for(lambda: first.count() == second.count() == 2)
    assert first.bodies() == [b"m0", b"m1"] and second.bodies() == [b"m2", b"m3"]
    for tag in cancel_order:
        work.cancel("work", tag)
    taken = drain(work, "work")
    assert [m.body for m in taken] == expected
    assert [m.redelivered for m in taken] == [True] * 4 + [False] * 2


def test_auto_ack_deliveries_are_settled_on_dispatch_and_never_redelivered(work):
    handled = []
    work.consume("work", handled.append, "auto", auto_ack=True)
    publish_all(work, "work", bodies(3))
    assert [d.message.body for d in handled] == bodies(3)
    work.cancel("work", "auto")
    stats = work.queue_stats("work")
    assert (stats["acked"], stats["unacked"], stats["ready"], stats["redelivered"]) == (
        3, 0, 0, 0,
    )
    assert work.ack_many(handled) == 0


def test_cancelling_an_unknown_consumer_requeues_nothing(work):
    holder = Holder(work, "work", "holder", 2, "callback")
    publish_all(work, "work", bodies(3))
    assert wait_for(lambda: holder.count() == 2)
    work.cancel("work", "nobody")
    work.cancel("undeclared", "holder")
    stats = work.queue_stats("work")
    assert (stats["unacked"], stats["ready"], stats["redelivered"]) == (2, 1, 0)
    assert work.ack_many(holder.held()) == 2


def test_a_deleted_queue_takes_its_held_deliveries_with_it(work):
    holder = Holder(work, "work", "holder", 2, "callback")
    publish_all(work, "work", bodies(2))
    assert wait_for(lambda: holder.count() == 2)
    work.delete_queue("work")
    # Nothing is left to settle, and nothing is redelivered anywhere.
    assert work.ack_many(holder.held()) == 0
    with pytest.raises(DeliveryError):
        work.publish("", "work", Message(b"late"))
