"""Call pins on the MOM's publish and settle path.

A publish runs on every ObjectMQ call, so the broker's own Python calls
are counted here: a profile function on every thread, counting only frames
of ``repro.mom`` modules.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

from repro.mom import Message, MessageBroker


@contextmanager
def repro_calls(prefix: str = "repro.mom"):
    """Count calls of modules under *prefix* on every thread while a switch is on.

    The profile is installed on this thread and on every thread started
    inside the block.  Yields ``(counted, counting)``: a one-item list
    holding the count, and the :class:`threading.Event` that switches
    counting on and off.
    """
    counted = [0]
    counting = threading.Event()

    def count(frame, event, arg):
        if (
            event == "call"
            and counting.is_set()
            and frame.f_globals.get("__name__", "").startswith(prefix)
        ):
            counted[0] += 1

    threading.setprofile(count)
    sys.setprofile(count)
    try:
        yield counted, counting
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def test_a_publish_delivery_and_ack_make_few_mom_calls():
    broker = MessageBroker()
    broker.declare_queue("work")
    settled = threading.Event()

    def on_run(deliveries):
        broker.ack_many(deliveries)
        settled.set()

    try:
        with repro_calls() as (counted, counting):
            # The consumer's thread starts with its first delivery, under
            # the profile: a warm round starts it before the count.
            broker.consume("work", None, "c", batch_callback=on_run)
            broker.publish("", "work", Message(b"warm"))
            assert settled.wait(2.0)
            settled.clear()
            counting.set()
            broker.publish("", "work", Message(b"job"))
            assert settled.wait(2.0)
            counting.clear()
        assert broker.queue_stats("work")["acked"] == 2
        assert counted[0] <= 13, counted[0]
    finally:
        broker.close()


def test_a_fanout_publish_to_one_bound_queue_makes_few_mom_calls():
    broker = MessageBroker()
    broker.declare_exchange("fan", "fanout")
    broker.declare_queue("a")
    broker.bind_queue("fan", "a")
    broker.publish("fan", "", Message(b"warm"))  # fills the route memo
    try:
        with repro_calls() as (counted, counting):
            counting.set()
            assert broker.publish("fan", "", Message(b"multi")) == 1
            counting.clear()
        assert broker.queue_stats("a")["ready"] == 2
        assert counted[0] <= 9, counted[0]
    finally:
        broker.close()
