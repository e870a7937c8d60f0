"""Supervisor high availability: leadership is one unacked message (§3.4).

A deployment has one *lease*, a persistent message on the durable queue
``omq.supervisor.lease``.  Every :class:`SupervisorNode` consumes it with
prefetch 1 and never acks: the node the MOM hands the lease to builds
its Supervisor and leads, the others receive nothing.  When the leader
stops or crashes its consumer goes, and the MOM redelivers the unacked
lease to one standby, as a dead SyncService instance's requests go to
one survivor (Fig 8(f)).  Two Supervisors never step at once.

Failure detection is the MOM's: a standby takes over when the leader's
consumer goes, not after a heartbeat silence.  A leader that hangs but
lives keeps the lease, as a hung SyncService instance keeps its delivery
(the Supervisor's registry source reports ``supervisor_up`` 0).  The
lease rests on the :class:`~repro.mom.transport.MomTransport` rule that
an unacked delivery is held until it is acked or its consumer is
cancelled.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.mom.message import PERSISTENT, Delivery, Message
from repro.objectmq.supervisor import Supervisor

LEASE_QUEUE = "omq.supervisor.lease"


class SupervisorNode:
    """One participant in the HA supervisor group.

    Args:
        mom: The shared MOM system.
        supervisor_factory: Builds a fresh, unstarted Supervisor when
            this node receives the lease.
        node_id: Unique identifier; it names the node's lease consumer.
    """

    def __init__(self, mom, supervisor_factory: Callable[[], Supervisor], node_id: str):
        self.mom = mom
        self.supervisor_factory = supervisor_factory
        self.node_id = node_id
        self.supervisor: Optional[Supervisor] = None
        self._lock = threading.Lock()
        self._stopped = False

    @property
    def is_leader(self) -> bool:
        return self.supervisor is not None

    def lead(self) -> None:
        """Bootstrap a deployment: join, then publish its lease unless one exists."""
        self.start()
        stats = self.mom.queue_stats(LEASE_QUEUE)
        if stats["ready"] + stats["unacked"] == 0:
            self.mom.publish("", LEASE_QUEUE, Message(b"lease", delivery_mode=PERSISTENT))

    def start(self) -> None:
        """Join as a standby: lead whenever the MOM hands this node the lease."""
        self.mom.declare_queue(LEASE_QUEUE, durable=True)
        self.mom.consume(LEASE_QUEUE, self._on_lease, f"lease.{self.node_id}", prefetch=1)

    def _on_lease(self, delivery: Delivery) -> None:
        with self._lock:  # never acked: holding the delivery is leading
            if not self._stopped:
                self.supervisor = self.supervisor_factory()
                self.supervisor.start()

    def stop(self) -> None:
        """Stop the Supervisor first, then release the lease to a standby."""
        with self._lock:
            self._stopped = True
            supervisor, self.supervisor = self.supervisor, None
        if supervisor is not None:
            supervisor.stop()
        self.mom.cancel(LEASE_QUEUE, f"lease.{self.node_id}")

    crash = stop  # a dying node's consumer goes too: the lease moves on alike
