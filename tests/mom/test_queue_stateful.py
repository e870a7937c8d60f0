"""Stateful property test: :class:`MessageQueue` against a plain-list model.

Hypothesis interleaves ``put`` / ``put_many`` / consumers with prefetch 1
and N / ``ack`` / ``ack_many`` / ``cancel_consumer`` and settles with live,
stale, duplicate and never-issued tags.  After
every step the queue must agree with a model that is nothing but a list of
ready message numbers and one dict of unacked deliveries per consumer:

* **no loss, no duplication** — every published message is in exactly one
  place: ready, one consumer's unacked window, or settled;
* **FIFO, redeliveries at the head** — what dispatch hands out is always
  the head of the model's ready list, and a requeued message goes back in
  front, flagged ``redelivered`` and only then;
* **work conserving within prefetch** — no window is over its prefetch,
  and nothing waits in ready while a consumer has room;
* **runs in tag order, within prefetch** — what a consumer's handler has
  been handed so far, run after run, is the front of its delivery-tag
  order, and no run is longer than its prefetch;
* ``published = acked + ready + unacked``.

Only the test thread mutates the queue (consumer handlers just record what
they are handed), so each consumer's ``unacked`` window can be read
synchronously after every call; that the handlers really received those
deliveries, once and in order, is checked when a consumer is cancelled and
at teardown.  A live tag is settled only once its consumer's handler has
been handed it, as a real consumer must: that is what makes ``prefetch``
bound a run.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import DuplicateConsumer
from repro.mom.message import Message
from repro.mom.queue import MessageQueue

MAX_CONSUMERS = 3
NEVER_ISSUED = 10**9


class ModelConsumer:
    """One registered consumer: the real handle plus the model's view."""

    def __init__(self, prefetch):
        self.prefetch = prefetch
        self.handle = None  # the queue's Consumer, set after registration
        self.unacked = {}  # delivery tag -> message number (the model)
        self.assigned = []  # every delivery tag dispatch ever gave it
        self.seen = []  # delivery tags its handler was actually handed
        self.longest_run = 0  # whole-run handlers only
        self.lock = threading.Condition()

    def on_delivery(self, delivery):
        with self.lock:
            self.seen.append(delivery.delivery_tag)
            self.lock.notify_all()

    def on_deliveries(self, deliveries):
        with self.lock:
            self.seen.extend(d.delivery_tag for d in deliveries)
            self.longest_run = max(self.longest_run, len(deliveries))
            self.lock.notify_all()

    def await_handed(self, tag):
        with self.lock:
            assert self.lock.wait_for(lambda: tag in self.seen, timeout=5.0)


class QueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = MessageQueue("stateful-q")
        self.ready = []  # message numbers, head first
        self.flagged = set()  # message numbers that were requeued
        self.consumers = {}  # consumer tag -> ModelConsumer
        self.stale_tags = []  # settled or requeued: must never ack again
        self.next_message = 0
        self.next_consumer = 0
        self.last_tag = 0
        self.published = self.acked = 0
        self.requeued = 0

    def teardown(self):
        self.queue.close()  # stops and joins every consumer thread
        for consumer in self.consumers.values():
            assert consumer.seen == consumer.assigned

    # -- helpers ----------------------------------------------------------------

    def _messages(self, count):
        numbers = list(range(self.next_message, self.next_message + count))
        self.next_message += count
        self.ready.extend(numbers)
        self.published += count
        return [Message(str(n).encode()) for n in numbers]

    def _live(self):
        return sorted(
            (tag, name)
            for name, consumer in self.consumers.items()
            for tag in consumer.unacked
        )

    def _requeue(self, numbers):
        self.ready[0:0] = numbers
        self.flagged.update(numbers)
        self.requeued += len(numbers)

    def _absorb_dispatch(self):
        """Move what the queue just dispatched from the model's ready list
        into the model's windows, checking it was the head, in order."""
        fresh = sorted(
            (tag, name, delivery)
            for name, consumer in self.consumers.items()
            for tag, delivery in consumer.handle.unacked.items()
            if tag not in consumer.unacked
        )
        for tag, name, delivery in fresh:
            assert tag > self.last_tag, "delivery tags are never reused"
            self.last_tag = tag
            number = int(delivery.message.body)
            assert self.ready and self.ready[0] == number, "dispatch is FIFO"
            self.ready.pop(0)
            assert delivery.message.redelivered == (number in self.flagged)
            assert delivery.consumer_tag == name
            self.consumers[name].unacked[tag] = number
            self.consumers[name].assigned.append(tag)

    # -- publishing -----------------------------------------------------------------

    @rule()
    def put(self):
        (message,) = self._messages(1)
        self.queue.put(message)
        self._absorb_dispatch()

    @rule(count=st.integers(min_value=0, max_value=6))
    def put_many(self, count):
        assert self.queue.put_many(self._messages(count)) == count
        self._absorb_dispatch()

    # -- consumers ------------------------------------------------------------------

    @precondition(lambda self: len(self.consumers) < MAX_CONSUMERS)
    @rule(prefetch=st.sampled_from([1, 1, 2, 5]), whole_runs=st.booleans())
    def add_consumer(self, prefetch, whole_runs):
        name = f"c{self.next_consumer}"
        self.next_consumer += 1
        consumer = self.consumers[name] = ModelConsumer(prefetch)
        if whole_runs:
            consumer.handle = self.queue.add_consumer(
                name, None, prefetch=prefetch, batch_callback=consumer.on_deliveries
            )
        else:
            consumer.handle = self.queue.add_consumer(
                name, consumer.on_delivery, prefetch=prefetch
            )
        self._absorb_dispatch()

    @precondition(lambda self: self.consumers)
    @rule(data=st.data())
    def add_duplicate_consumer(self, data):
        name = data.draw(st.sampled_from(sorted(self.consumers)))
        with pytest.raises(DuplicateConsumer):
            self.queue.add_consumer(name, lambda delivery: None)

    @precondition(lambda self: self.consumers)
    @rule(data=st.data())
    def cancel_consumer(self, data):
        name = data.draw(st.sampled_from(sorted(self.consumers)))
        consumer = self.consumers.pop(name)
        self.queue.cancel_consumer(name)
        # The whole window goes back in front, oldest first.
        self._requeue([consumer.unacked[tag] for tag in sorted(consumer.unacked)])
        self.stale_tags.extend(consumer.unacked)
        consumer.handle.join(timeout=5.0)
        assert consumer.seen == consumer.assigned
        self._absorb_dispatch()

    # -- settling ---------------------------------------------------------------------

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def ack(self, data):
        tag, name = data.draw(st.sampled_from(self._live()))
        self.consumers[name].await_handed(tag)
        assert self.queue.ack(tag) is True
        del self.consumers[name].unacked[tag]
        self.stale_tags.append(tag)
        self.acked += 1
        self._absorb_dispatch()

    @rule(data=st.data())
    def ack_many(self, data):
        live = dict(self._live())
        candidates = sorted(live) + self.stale_tags[-4:] + [NEVER_ISSUED]
        tags = data.draw(st.lists(st.sampled_from(candidates), max_size=8))
        expected = []
        for tag in tags:
            if tag in live and tag not in expected:
                expected.append(tag)
                self.consumers[live[tag]].await_handed(tag)
        assert self.queue.ack_many(tags) == expected
        for tag in expected:
            del self.consumers[live[tag]].unacked[tag]
        self.stale_tags.extend(expected)
        self.acked += len(expected)
        self._absorb_dispatch()

    @rule(data=st.data())
    def settle_with_a_dead_tag(self, data):
        tag = data.draw(st.sampled_from(self.stale_tags[-4:] + [NEVER_ISSUED]))
        assert self.queue.ack(tag) is False
        self._absorb_dispatch()  # nothing may have moved

    # -- invariants --------------------------------------------------------------------

    @invariant()
    def windows_match_and_respect_prefetch(self):
        for consumer in self.consumers.values():
            assert set(consumer.handle.unacked) == set(consumer.unacked)
            assert len(consumer.unacked) <= consumer.prefetch

    @invariant()
    def runs_concatenate_to_tag_order_and_respect_prefetch(self):
        for consumer in self.consumers.values():
            with consumer.lock:
                seen, longest_run = list(consumer.seen), consumer.longest_run
            assert seen == consumer.assigned[: len(seen)]
            assert longest_run <= consumer.prefetch

    @invariant()
    def nothing_waits_while_a_consumer_has_room(self):
        if self.ready:
            assert all(len(c.unacked) >= c.prefetch for c in self.consumers.values())

    @invariant()
    def every_message_is_in_exactly_one_place(self):
        held = self.ready + [
            number for c in self.consumers.values() for number in c.unacked.values()
        ]
        assert len(set(held)) == len(held)
        assert len(held) + self.acked == self.published
        assert [int(m.body) for m in self.queue._ready] == self.ready

    @invariant()
    def counters_add_up(self):
        queue = self.queue
        unacked = sum(len(c.unacked) for c in self.consumers.values())
        assert queue.published_count == self.published
        assert len(queue) == len(self.ready)
        assert queue.unacked_count == unacked
        assert queue.acked_count == self.acked
        assert queue.redelivered_count == self.requeued
        assert queue.published_count == (
            queue.acked_count + len(queue) + queue.unacked_count
        )


QueueMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestMessageQueueStateful = QueueMachine.TestCase
