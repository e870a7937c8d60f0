"""Publisher-side buffering with explicit backpressure.

The MOM broker charges every publish a full cycle: latency model, routing,
queue lock, dispatch, stats.  For fire-and-forget casts (the
``commitRequest`` hot path) none of that needs to happen per message — a
:class:`PublishBuffer` parks casts client-side and hands the broker a whole
run of them through :meth:`~repro.mom.broker_server.MessageBroker.publish_many`,
so N casts cost one broker round trip, one queue lock cycle per destination
queue, and one stats update.

Semantics:

* **Bounded + backpressure** — the buffer holds at most ``max_messages``
  casts.  The publish that fills it flushes *inline on the publishing
  thread*: a fast producer is slowed to the broker's drain rate instead of
  growing an unbounded client-side queue.
* **Flush deadline** — a background flusher guarantees no cast waits more
  than ``flush_deadline`` seconds, so a trickle of casts is never parked
  indefinitely.  The thread starts lazily on the first buffered cast.
* **Ordering** — FIFO within the buffer and preserved through
  ``publish_many``; the owning ObjectMQ Broker flushes before every
  unbuffered (sync) publish, so cross-call ordering from one client is
  exactly what an unbuffered client would produce.
* **At-least-once** — a cast is "sent" once the flush hands it to the
  broker; :meth:`close` performs a final synchronous flush, so a graceful
  shutdown never drops buffered casts.  (A hard client crash loses casts
  the broker never saw — the same window an unbuffered publisher has
  between deciding to send and ``publish`` returning.)

Telemetry rides along untouched: TraceContext is already inside the
envelope/headers when the message enters the buffer, and queue-wait spans
are stamped from broker-side enqueue time, so batching is visible as
(bounded) extra client-side latency, never as corrupted spans.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import List, Optional, Tuple

from repro.mom.message import Message
from repro.mom.transport import MomTransport
from repro.telemetry.registry import REGISTRY

logger = logging.getLogger(__name__)

#: Default flush deadline: casts wait at most this long (seconds).
DEFAULT_FLUSH_DEADLINE = 0.002


class PublishBuffer:
    """Bounded client-side buffer amortizing broker publish cycles.

    Args:
        mom: The :class:`~repro.mom.transport.MomTransport` flushed into.
        max_messages: Buffer capacity; the filling publish flushes inline
            (backpressure).
        flush_deadline: Upper bound on how long a buffered cast may wait
            before the background flusher pushes it out.
        name: Label for the metrics source (normally the client id).
    """

    def __init__(
        self,
        mom: MomTransport,
        max_messages: int = 64,
        flush_deadline: float = DEFAULT_FLUSH_DEADLINE,
        name: str = "",
    ):
        if max_messages < 1:
            raise ValueError("max_messages must be >= 1")
        if flush_deadline <= 0:
            raise ValueError("flush_deadline must be > 0")
        self._mom = mom
        self.max_messages = max_messages
        self.flush_deadline = flush_deadline
        self.name = name
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: List[Tuple[str, str, Message]] = []
        self._oldest_at = 0.0
        self._closed = False
        self._flusher: Optional[threading.Thread] = None
        # Counters (all mutated under self._lock, scraped at snapshot).
        self.flushes = 0
        self.flushed_messages = 0
        self.size_flushes = 0
        self.deadline_flushes = 0
        self._source_token = REGISTRY.register_source(
            "omq_publish_buffer",
            self,
            PublishBuffer._scrape,
            client=name or "anonymous",
        )

    def _scrape(self) -> dict:
        with self._lock:
            return {
                "pending": float(len(self._pending)),
                "flushes": float(self.flushes),
                "flushed_messages": float(self.flushed_messages),
                "size_flushes": float(self.size_flushes),
                "deadline_flushes": float(self.deadline_flushes),
            }

    # -- producing ------------------------------------------------------------

    def publish(self, exchange_name: str, routing_key: str, message: Message) -> None:
        """Buffer one cast; flushes inline when the buffer is full."""
        flush_now = False
        with self._lock:
            if self._closed:
                # Late cast after close: degrade to a direct publish so
                # nothing is silently dropped.
                direct = True
            else:
                direct = False
                if not self._pending:
                    # Empty -> non-empty transition: (re)arm the deadline
                    # and wake the flusher so its wait is re-computed
                    # against the new oldest cast.  Later appends don't
                    # notify — the deadline they inherit is already armed,
                    # and a per-cast wakeup would cost a thread switch on
                    # every publish.
                    self._oldest_at = time.monotonic()
                    if self._flusher is None:
                        self._start_flusher_locked()
                    else:
                        self._wake.notify()
                self._pending.append((exchange_name, routing_key, message))
                if len(self._pending) >= self.max_messages:
                    flush_now = True
        if direct:
            self._mom.publish(exchange_name, routing_key, message)
        elif flush_now:
            # Backpressure: the producing thread pays the broker flush.
            self.flush(reason="size")

    def flush(self, reason: str = "explicit") -> int:
        """Synchronously drain the buffer into the broker.

        Returns the number of messages flushed.  Safe to call from any
        thread; concurrent flushes each take whatever is pending at their
        turn, so ordering within one flush batch is preserved.
        """
        with self._lock:
            batch, self._pending = self._pending, []
            if not batch:
                return 0
            self.flushes += 1
            self.flushed_messages += len(batch)
            if reason == "size":
                self.size_flushes += 1
            elif reason == "deadline":
                self.deadline_flushes += 1
        self._mom.publish_many(batch)
        return len(batch)

    # -- background deadline flusher -------------------------------------------

    def _start_flusher_locked(self) -> None:
        label = self.name or f"{id(self):x}"
        self._flusher = threading.Thread(
            target=self._run_flusher,
            name=f"publish-buffer-{label}",
            daemon=True,
        )
        self._flusher.start()

    def _run_flusher(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                if not self._pending:
                    self._wake.wait(self.flush_deadline)
                    continue
                due_in = self._oldest_at + self.flush_deadline - time.monotonic()
                if due_in > 0:
                    self._wake.wait(due_in)
                    continue
            try:
                self.flush(reason="deadline")
            except Exception:  # noqa: BLE001 - keep the flusher alive
                logger.exception("publish-buffer deadline flush failed")

    # -- introspection / lifecycle ----------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        """Final flush, then stop accepting buffered casts."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
            flusher = self._flusher
        if self._source_token is not None:
            REGISTRY.unregister_source(self._source_token)
            self._source_token = None
        self.flush(reason="close")
        if flusher is not None:
            flusher.join(timeout=1.0)
