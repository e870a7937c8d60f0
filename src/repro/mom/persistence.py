"""Durable message store backing broker restarts.

The paper (§3.4) notes that "the messaging system can be instrumented to
store all the messages present in the queues, so that when the system is
restarted, the unprocessed messages can be recovered".  This module
provides that instrumentation: persistent messages published to durable
queues are journalled, removed on ack, and replayed into freshly declared
queues after a restart.

Two store implementations share one interface:

* :class:`InMemoryMessageStore` — survives *broker* restarts within one
  process (the scenario the experiments exercise);
* :class:`FileMessageStore` — additionally survives process restarts by
  journalling to an append-only file.
"""

from __future__ import annotations

import json
import os
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

    def record_ack(self, queue_name: str, message: Message) -> None:
        self.record_ack_many(queue_name, (message,))

    def record_ack_many(self, queue_name: str, messages: Iterable[Message]) -> None:
        """Drop a run of journal entries under one store-lock cycle."""
        with self._lock:
            for message in messages:
                self._entries.pop((queue_name, message.message_id), None)

    def pending_for(self, queue_name: str) -> List[Message]:
        """Messages published to *queue_name* but never acked, in id order."""
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


class FileMessageStore(InMemoryMessageStore):
    """Append-only JSON-lines journal; compacted on load.

    Record format: one JSON object per line, ``op`` is ``pub`` or ``ack``.
    Payload bytes are stored latin-1-escaped, which round-trips arbitrary
    bytes without a base64 dependency.
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._file_lock = threading.Lock()
        if os.path.exists(path):
            self._load()

    def _load(self) -> None:
        pending: Dict[Tuple[str, int], Message] = {}
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                key = (record["queue"], record["message_id"])
                if record["op"] == "pub":
                    pending[key] = Message(
                        body=record["body"].encode("latin-1"),
                        routing_key=record["routing_key"],
                        reply_to=record.get("reply_to"),
                        correlation_id=record.get("correlation_id"),
                        headers=record.get("headers", {}),
                        delivery_mode=PERSISTENT,
                    )
                else:
                    pending.pop(key, None)
        with self._lock:
            # Re-key under the freshly assigned message ids so acks recorded
            # after the reload match.
            self._entries = {
                (qname, msg.message_id): msg for (qname, _), msg in pending.items()
            }
        self._compact()

    def _append(self, record: dict) -> None:
        with self._file_lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")

    def _compact(self) -> None:
        with self._lock:
            entries = list(self._entries.items())
        with self._file_lock:
            with open(self.path, "w", encoding="utf-8") as fh:
                for (qname, mid), msg in entries:
                    fh.write(json.dumps(self._pub_record(qname, mid, msg)) + "\n")

    @staticmethod
    def _pub_record(queue_name: str, message_id: int, message: Message) -> dict:
        return {
            "op": "pub",
            "queue": queue_name,
            "message_id": message_id,
            "body": message.body.decode("latin-1"),
            "routing_key": message.routing_key,
            "reply_to": message.reply_to,
            "correlation_id": message.correlation_id,
            "headers": message.headers,
        }

    def record_publish(self, queue_name: str, message: Message) -> None:
        if message.delivery_mode != PERSISTENT:
            return
        super().record_publish(queue_name, message)
        self._append(self._pub_record(queue_name, message.message_id, message))

    def record_ack_many(self, queue_name: str, messages: Iterable[Message]) -> None:
        # The journal needs one ack record per message that was actually
        # journalled, so the file store keeps its own pop.
        with self._lock:
            acked = [
                message.message_id
                for message in messages
                if self._entries.pop((queue_name, message.message_id), None)
                is not None
            ]
        for message_id in acked:
            self._append({"op": "ack", "queue": queue_name, "message_id": message_id})
