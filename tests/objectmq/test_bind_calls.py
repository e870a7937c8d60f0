"""Call pins on ObjectMQ's bind.

A bind is how ObjectMQ brings up capacity (§3): every spawned SyncService
instance and every joining device's listener pays one, so a deployment is
mostly binds.  The library's own Python calls are counted here, with the
profile function of the MOM's publish pins, over every ``repro`` module.  A
bind declares the oid's shared unicast queue and subscribes the instance
to it, joins the Broker's multicast group (the first of an oid declares
its fanout exchange and binds the Broker's multicast queue to it), and
registers the instance's statistics with the metrics registry.
"""

from __future__ import annotations

import threading

from repro.mom import MessageBroker
from repro.objectmq import Broker
from tests.mom.test_publish_calls import repro_calls


class Listener:
    def notify_commit(self, notification):
        pass


def test_a_first_of_oid_listener_bind_makes_few_calls():
    mom = MessageBroker()
    broker = Broker(mom, {"client_id": "recv"})
    try:
        # Warm: the Broker's first bind declares its multicast queue.
        broker.bind("ws.warm", Listener())
        with repro_calls("repro.") as (counted, counting):
            counting.set()
            skeleton = broker.bind("ws.fresh", Listener())
            counting.clear()
        assert mom.exchange_has_bindings("ws.fresh.multi")
        assert mom.queue_stats("ws.fresh")["consumers"] == 1
        assert skeleton.instance_id.startswith("ws.fresh.inst.recv.")
        assert counted[0] <= 27, counted[0]
    finally:
        broker.close()
        mom.close()


def test_a_bound_listener_never_delivered_to_has_no_thread_or_mailbox():
    mom = MessageBroker()
    broker = Broker(mom)
    try:
        skeleton = broker.bind("ws.quiet", Listener())
        (consumer,) = mom.declare_queue("ws.quiet")._consumers
        assert consumer._thread is None
        assert consumer._mailbox is None
        assert not [
            t for t in threading.enumerate() if skeleton.instance_id in t.name
        ]
    finally:
        broker.close()
        mom.close()


def test_instance_ids_are_unique_across_brokers_and_rebinds():
    mom = MessageBroker()
    first, second = Broker(mom), Broker(mom)
    try:
        ids = [first.bind("ws.shared", Listener()).instance_id]
        ids.append(second.bind("ws.shared", Listener()).instance_id)
        skeleton = first.bind("ws.shared", Listener())
        ids.append(skeleton.instance_id)
        first.unbind(skeleton)
        ids.append(first.bind("ws.shared", Listener()).instance_id)
        assert len(set(ids)) == len(ids)
        assert mom.queue_stats("ws.shared")["consumers"] == 3
    finally:
        first.close()
        second.close()
        mom.close()
