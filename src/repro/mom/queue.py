"""Work queues with AMQP semantics: acks, prefetch and round-robin dispatch.

A :class:`MessageQueue` holds ready messages and a set of registered
consumers.  Dispatch follows the AMQP work-queue model the paper relies on
(§3): a message is handed to *one* consumer, chosen round-robin among the
consumers whose number of unacknowledged deliveries is below their prefetch
window.  With ``prefetch=1`` this is exactly the "deliver to the first idle
remote object" behaviour the paper describes, and it is what makes adding a
SyncService instance immediately absorb load.

There is one delivery path and it works on *runs* of messages: publishing
is :meth:`MessageQueue.put_many`, settling is :meth:`MessageQueue.ack_many`
and a consumer's handler is handed lists of deliveries; ``put`` and
``ack`` are the same code called with a run of one.  The broker enqueues
each copy of a publish with one ``put_many``: one queue-lock cycle and one
dispatch pass (:meth:`MessageQueue._dispatch_locked`), which picks the
consumers and fills their mailboxes.  A queue comes into being only
through the broker's ``declare_queue``; a publish never creates one.
There is no pull mode: a message leaves the queue only by dispatch to a
consumer.

The dispatcher hands over single deliveries; a run is what a woken
consumer finds waiting in its mailbox (:meth:`Consumer._run`), which is at
most ``prefetch``.  An ``auto_ack`` consumer has neither thread nor
mailbox: the thread that dispatched its delivery runs the handler, once
the queue lock is released.

Reliability: a delivery stays in the consumer's unacked set until it is
acked.  If the consumer is cancelled or its owner crashes, every unacked
message is put back at the head of the queue with ``redelivered=True`` —
the at-least-once guarantee of §3.4.  Cancel is the only requeue path;
there is no negative acknowledgement.  Requeue re-enqueues the *same*
message object (payload untouched) in one batched splice.
"""

from __future__ import annotations

import itertools
import logging
import queue as stdlib_queue
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DuplicateConsumer
from repro.mom.message import Delivery, Message
from repro.telemetry.registry import REGISTRY
from repro.telemetry.trace import DEQUEUED_AT_KEY, ENQUEUED_AT_KEY, TRACER

logger = logging.getLogger(__name__)

#: Sentinel pushed into a consumer mailbox to terminate its worker thread.
_STOP = object()

#: Auto-ack deliveries a dispatch pass made, to run once the lock is free.
_Inline = List[Tuple["Consumer", Delivery]]


def _run_inline(inline: _Inline) -> None:
    """Run auto-ack handlers on this thread; the queue lock is not held."""
    for consumer, delivery in inline:
        consumer.handle([delivery])


def _each(
    tag: str, callback: Callable[[Delivery], None]
) -> Callable[[List[Delivery]], None]:
    """Wrap a per-delivery *callback* into a handler of runs."""

    def handle(deliveries: List[Delivery]) -> None:
        for delivery in deliveries:
            try:
                callback(delivery)
            except Exception:  # noqa: BLE001 - consumer bugs must not kill dispatch
                logger.exception("consumer %s raised while handling delivery", tag)

    return handle


class Consumer:
    """A registered consumer: a handler plus, if it acks, a worker thread.

    An acking consumer's deliveries are executed on a dedicated thread
    (started, with its mailbox, by the dispatch pass that hands it its
    first delivery) so that one slow consumer never blocks the queue's
    dispatch path or its sibling consumers.  Acking is the responsibility of the subscriber
    (normally the ObjectMQ skeleton) via :meth:`MessageQueue.ack_many`.

    The mailbox carries single deliveries; the thread, woken by one, takes
    every other already waiting and hands the handler the lot as one list.
    An acking consumer holds at most ``prefetch`` deliveries, mailbox and
    handler together, which bounds its runs.  An ``auto_ack`` consumer has
    no thread and no mailbox: whoever dispatched the delivery runs
    :meth:`handle` on its own thread, after releasing the queue lock, so
    the handler must be short and thread-safe.  The handler is chosen once,
    at registration: a *batch_callback* receives each list whole and owns
    per-delivery error handling; a per-delivery *callback* is wrapped into
    a list handler that isolates each delivery, so one bad delivery never
    drops its siblings.
    """

    def __init__(
        self,
        tag: str,
        callback: Optional[Callable[[Delivery], None]],
        prefetch: int = 1,
        auto_ack: bool = False,
        batch_callback: Optional[Callable[[List[Delivery]], None]] = None,
    ):
        self.tag = tag
        self._handler = (
            batch_callback if batch_callback is not None else _each(tag, callback)
        )
        self.prefetch = max(1, prefetch)
        self.auto_ack = auto_ack
        self.unacked: Dict[int, Delivery] = {}
        # Both made by the first delivery: a consumer that never gets a
        # message (a listener's unicast queue) never costs a thread or a
        # mailbox.
        self._mailbox: Optional["stdlib_queue.SimpleQueue"] = None
        self._thread: Optional[threading.Thread] = None

    def handle(self, run: List[Delivery]) -> None:
        """Call the handler on *run*; what it raises is logged, not passed on."""
        try:
            self._handler(run)
        except Exception:  # noqa: BLE001 - consumer bugs must not kill dispatch
            logger.exception("consumer %s raised while handling run", self.tag)

    def stop(self) -> None:
        if self._thread is not None:
            self._mailbox.put(_STOP)

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            item = self._mailbox.get()
            run = []
            try:
                while item is not _STOP:
                    run.append(item)
                    item = self._mailbox.get_nowait()
            except stdlib_queue.Empty:
                pass
            if run:
                self.handle(run)
            if item is _STOP:
                return  # after the run that was queued ahead of it


class MessageQueue:
    """A named queue with ready buffer, consumers, and ack bookkeeping.

    Args:
        name: Queue name (routing target on the default exchange).
        exclusive: Private single-owner queue (response/multicast queues).
    """

    def __init__(self, name: str, exclusive: bool = False):
        self.name = name
        self.exclusive = exclusive
        self._ready: deque = deque()
        self._consumers: List[Consumer] = []
        self._rr_index = 0
        # Delivery tags are queue-scoped (AMQP: channel-scoped) — handing
        # one out is a plain next() under the queue lock, not a trip
        # through a process-wide counter lock.
        self._delivery_tags = itertools.count(1)
        self._lock = threading.Lock()
        # Counters for introspection (HasObjectInfo, paper §3.3).
        self.published_count = 0
        self.delivered_count = 0
        self.acked_count = 0
        self.redelivered_count = 0
        # Hot-path health: deepest the ready buffer ever got, and how
        # many dispatch cycles (lock acquisitions that tried to hand out
        # messages) ran.  Scraped lazily; exclusive queues are transient
        # and numerous, so only named queues register a source.
        self.depth_high_water = 0
        self.dispatch_cycles = 0
        self._source_token: Optional[int] = None
        if not exclusive:
            self._source_token = REGISTRY.register_source(
                "mom_queue",
                self,
                lambda q: {
                    "depth_high_water": float(q.depth_high_water),
                    "dispatch_cycles": float(q.dispatch_cycles),
                },
                queue=name,
            )

    # -- publishing ---------------------------------------------------------

    def put(self, message: Message) -> None:
        """Enqueue *message* and trigger dispatch: a run of one."""
        self.put_many((message,))

    def put_many(self, messages: Sequence[Message]) -> int:
        """Enqueue a run of messages under one lock acquisition.

        The whole run lands through a single lock cycle and a single
        dispatch pass, in order: a run pays the acquire/dispatch cost
        once, not per message.  Returns the number of messages enqueued.
        """
        if not messages:
            return 0
        if TRACER.enabled:
            # Broker-clock enqueue stamp: queue-wait spans are derived
            # from these header timestamps, not from endpoint timers.
            now = time.time()
            for message in messages:
                message.headers.setdefault(ENQUEUED_AT_KEY, now)
        count = len(messages)
        with self._lock:
            self._ready.extend(messages)
            self.published_count += count
            if len(self._ready) > self.depth_high_water:
                self.depth_high_water = len(self._ready)
            inline = self._dispatch_locked()
        if inline:
            _run_inline(inline)
        return count

    # -- consumers (basic.consume) -------------------------------------------

    def add_consumer(
        self,
        tag: str,
        callback: Optional[Callable[[Delivery], None]],
        prefetch: int = 1,
        auto_ack: bool = False,
        batch_callback: Optional[Callable[[List[Delivery]], None]] = None,
    ) -> Consumer:
        with self._lock:
            if any(c.tag == tag for c in self._consumers):
                raise DuplicateConsumer(f"consumer tag {tag!r} already on {self.name!r}")
            consumer = Consumer(
                tag,
                callback,
                prefetch=prefetch,
                auto_ack=auto_ack,
                batch_callback=batch_callback,
            )
            self._consumers.append(consumer)
            inline = self._dispatch_locked()
        if inline:
            _run_inline(inline)
        return consumer

    def cancel_consumer(self, tag: str) -> None:
        """Remove a consumer, requeuing all its unacked deliveries.

        This is the crash-recovery path from §3.4: when a SyncService
        instance dies mid-operation, its in-flight commit requests flow back
        to the queue and are redelivered to a surviving instance.

        Requeue is batched: the consumer's unacked messages are spliced
        back onto the head of the ready buffer in one ``extendleft``, in
        their original delivery order, as the *same* message objects
        (flagged ``redelivered=True``; no payload or envelope copies).
        """
        with self._lock:
            consumer = self._pop_consumer_locked(tag)
            if consumer is None:
                return
            consumer.stop()
            window = sorted(consumer.unacked.values(), key=lambda d: d.delivery_tag)
            consumer.unacked.clear()
            for delivery in window:
                delivery.message.redelivered = True
            # extendleft reverses, so feed it newest-first to land the run
            # ahead of the ready buffer in original (oldest-first) order.
            self._ready.extendleft(d.message for d in reversed(window))
            self.redelivered_count += len(window)
            inline = self._dispatch_locked()
        if inline:
            _run_inline(inline)

    def _pop_consumer_locked(self, tag: str) -> Optional[Consumer]:
        for i, consumer in enumerate(self._consumers):
            if consumer.tag == tag:
                return self._consumers.pop(i)
        return None

    # -- acks ----------------------------------------------------------------

    def ack(self, delivery_tag: int) -> bool:
        """Acknowledge a delivery; returns False if the tag is unknown."""
        return bool(self.ack_many((delivery_tag,)))

    def ack_many(self, delivery_tags: Iterable[int]) -> List[int]:
        """Acknowledge a run of deliveries in one lock cycle.

        Returns the tags that were actually acked; unknown tags — e.g.
        already requeued after a consumer crash, or acked twice — are
        skipped.  Dispatch runs once at the end: freeing N prefetch slots
        triggers one drain, not N.
        """
        acked: List[int] = []
        inline: Optional[_Inline] = None
        with self._lock:
            for delivery_tag in delivery_tags:
                for consumer in self._consumers:
                    if delivery_tag in consumer.unacked:
                        del consumer.unacked[delivery_tag]
                        acked.append(delivery_tag)
                        break
            if acked:
                self.acked_count += len(acked)
                inline = self._dispatch_locked()
        if inline:
            _run_inline(inline)
        return acked

    # -- dispatch -------------------------------------------------------------

    def _dispatch_locked(self) -> Optional[_Inline]:
        """Hand ready messages to eligible consumers, one delivery each.

        Must be called with ``self._lock`` held.  Consumers are tried
        round-robin, starting after the last one served.  A consumer is
        eligible while its unacked window is below its prefetch limit; with
        the default prefetch of 1 this selects only idle consumers, which is
        the transparent load balancing the paper credits the MOM layer
        with.  An acking consumer's delivery goes to its mailbox, and the
        first one makes the mailbox and starts its thread (under the lock,
        so the start cannot race itself).  An ``auto_ack`` consumer has no
        window and is always eligible; its deliveries are not put anywhere
        but returned (None when there are none, so the usual pass allocates
        nothing), and the caller hands them to :func:`_run_inline` after
        releasing the lock.
        The transport contract lets such a handler publish, which would
        otherwise re-enter a lock its own thread holds.
        """
        self.dispatch_cycles += 1
        stamp = time.time() if TRACER.enabled else None
        inline: Optional[_Inline] = None
        consumers = self._consumers
        n = len(consumers)
        while self._ready and n:
            for offset in range(n):
                consumer = consumers[(self._rr_index + offset) % n]
                if len(consumer.unacked) < consumer.prefetch:
                    break
            else:
                break  # every window is full
            self._rr_index = (self._rr_index + offset + 1) % n
            message = self._ready.popleft()
            if stamp is not None:
                message.headers[DEQUEUED_AT_KEY] = stamp
            delivery = Delivery(
                delivery_tag=next(self._delivery_tags),
                queue_name=self.name,
                consumer_tag=consumer.tag,
                message=message,
            )
            self.delivered_count += 1
            if consumer.auto_ack:
                self.acked_count += 1
                if inline is None:
                    inline = []
                inline.append((consumer, delivery))
            else:
                consumer.unacked[delivery.delivery_tag] = delivery
                if consumer._thread is None:
                    consumer._mailbox = stdlib_queue.SimpleQueue()
                    consumer._thread = threading.Thread(
                        target=consumer._run, name=f"consumer-{consumer.tag}", daemon=True
                    )
                    consumer._thread.start()
                consumer._mailbox.put(delivery)
        return inline

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._ready)

    @property
    def consumer_count(self) -> int:
        with self._lock:
            return len(self._consumers)

    @property
    def unacked_count(self) -> int:
        with self._lock:
            return sum(len(c.unacked) for c in self._consumers)

    def close(self) -> None:
        if self._source_token is not None:
            REGISTRY.unregister_source(self._source_token)
            self._source_token = None
        with self._lock:
            consumers = list(self._consumers)
            self._consumers.clear()
        for consumer in consumers:
            consumer.stop()
        for consumer in consumers:
            consumer.join(timeout=1.0)
