"""High-availability broker clustering.

The paper closes §3.4 with: "high availability can be achieved by using
clusters of messaging brokers".  :class:`BrokerCluster` reproduces the
standard mirrored-queue deployment: a primary broker serves all traffic
while its durable state (the persistent-message journal) is shared with the
standby nodes.  When the primary fails, the next standby is promoted and
re-hydrates every durable queue from the shared journal, so no persistent
message that was published-but-unacked is lost across the failover.

Consumers must re-subscribe after failover, as with real AMQP clients.
ObjectMQ does not re-subscribe after a failover today: nothing in it
listens to ``on_failover``, so a ``Broker``'s consumers go with the failed
node and are not re-created (ROADMAP item 4(c)).
"""

from __future__ import annotations

import threading
from typing import Callable, List

from repro.errors import BrokerClosed
from repro.mom.broker_server import MessageBroker
from repro.mom.persistence import InMemoryMessageStore


class BrokerCluster:
    """A primary/standby group of :class:`MessageBroker` nodes.

    Args:
        size: Total number of nodes (1 primary + size-1 standbys).
    """

    def __init__(self, size: int = 2):
        if size < 1:
            raise ValueError("cluster size must be >= 1")
        self._store = InMemoryMessageStore()
        # Every facade call resolves `active` through this lock: on the
        # hot path it guards one list index.
        self._lock = threading.Lock()
        self._nodes: List[MessageBroker] = [
            MessageBroker(store=self._store, name=f"node-{i}") for i in range(size)
        ]
        self._active_index = 0
        self.generation = 0
        self._failover_listeners: List[Callable[[int], None]] = []
        # Durable queue *definitions* survive failover even when empty
        # (mirrored-queue semantics): track them cluster-side.
        self._durable_queues: set = set()

    # -- membership -------------------------------------------------------------

    @property
    def active(self) -> MessageBroker:
        """The broker node currently serving traffic."""
        with self._lock:
            return self._nodes[self._active_index]

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._nodes)

    def on_failover(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the new generation after failover."""
        self._failover_listeners.append(listener)

    def fail_primary(self) -> MessageBroker:
        """Kill the active node and promote the next standby.

        Returns the newly active broker.  Raises :class:`BrokerClosed` when
        no standby remains.
        """
        with self._lock:
            dead = self._nodes.pop(self._active_index)
            if not self._nodes:
                self._nodes.append(dead)  # keep invariants for repr/debug
                raise BrokerClosed("no standby broker left to promote")
            self._active_index = 0
            promoted = self._nodes[0]
            self.generation += 1
            generation = self.generation
        dead.close()
        # Re-hydrate durable queues on the promoted node: queue definitions
        # from the cluster-side registry, contents from the shared journal.
        # A declare is idempotent, so a queue the node already has is kept.
        for queue_name in sorted(self._durable_queues | set(self._store.queue_names())):
            promoted.declare_queue(queue_name, durable=True)
        for listener in list(self._failover_listeners):
            listener(generation)
        return promoted

    def add_standby(self) -> MessageBroker:
        """Grow the cluster with a fresh standby sharing the journal."""
        with self._lock:
            node = MessageBroker(
                store=self._store,
                name=f"node-{self.generation}-{len(self._nodes)}",
            )
            self._nodes.append(node)
            return node

    # -- broker facade ------------------------------------------------------------
    # The cluster is a MomTransport: everything it does not define itself
    # is the active node's, so ObjectMQ can be pointed at either
    # interchangeably.  A failover between two calls simply lands the next
    # one on the promoted node — the shared durable journal carries
    # persistent messages across.

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.active, name)

    def declare_queue(self, name: str, durable: bool = False, exclusive: bool = False):
        if durable:
            self._durable_queues.add(name)
        return self.active.declare_queue(name, durable=durable, exclusive=exclusive)

    def close(self) -> None:
        with self._lock:
            nodes = list(self._nodes)
        for node in nodes:
            node.close()
