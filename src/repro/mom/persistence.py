"""Durable message store backing broker restarts.

The paper (§3.4) notes that "the messaging system can be instrumented to
store all the messages present in the queues, so that when the system is
restarted, the unprocessed messages can be recovered".  This module
provides that instrumentation: persistent messages published to durable
queues are journalled, removed on ack, and replayed into freshly declared
queues after a restart.

:class:`InMemoryMessageStore` survives *broker* restarts within one
process.  A :class:`~repro.mom.cluster.BrokerCluster` shares one among its
nodes, so a failover keeps every unacked persistent message too.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Tuple

from repro.mom.message import Message, PERSISTENT


class InMemoryMessageStore:
    """Journal of persistent messages keyed by (queue, message_id)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, int], Message] = {}

    def record_publish(self, queue_name: str, message: Message) -> None:
        if message.delivery_mode != PERSISTENT:
            return
        with self._lock:
            self._entries[(queue_name, message.message_id)] = message

    def record_ack_many(self, queue_name: str, messages: Iterable[Message]) -> None:
        """Drop a run of journal entries under one store-lock cycle."""
        with self._lock:
            for message in messages:
                self._entries.pop((queue_name, message.message_id), None)

    def pending_for(self, queue_name: str) -> List[Message]:
        """Messages published to *queue_name* but never acked, in id order."""
        if not self._entries:
            return []  # the usual declare: nothing journaled to scan
        with self._lock:
            items = [
                (mid, msg)
                for (qname, mid), msg in self._entries.items()
                if qname == queue_name
            ]
        items.sort(key=lambda pair: pair[0])
        return [msg.copy_for_queue() for _, msg in items]

    def queue_names(self) -> List[str]:
        with self._lock:
            return sorted({qname for (qname, _mid) in self._entries})

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
