"""Tests for the RemoteBroker slave node."""

from __future__ import annotations

import pytest

from repro.errors import RemoteInvocationError
from repro.mom import Message, MessageBroker
from repro.objectmq import Broker, RemoteBroker, RemoteBrokerApi
from repro.objectmq.naming import multi_exchange_name
from repro.objectmq.remote_broker import REMOTE_BROKER_OID

from tests.mom.test_broker_server import wait_for


class Widget:
    def poke(self):
        return "poked"


@pytest.fixture
def rig():
    mom = MessageBroker()
    host = Broker(mom)
    rbroker = RemoteBroker(host, broker_name="node-a")
    rbroker.register_factory("widget", Widget)
    rbroker.serve()
    client = Broker(mom)
    fleet = client.lookup(REMOTE_BROKER_OID, RemoteBrokerApi)
    yield mom, rbroker, fleet
    rbroker.stop()
    client.close()
    host.close()
    mom.close()


def test_ping_reports_census(rig):
    _mom, rbroker, fleet = rig
    replies = fleet.ping()
    assert len(replies) == 1
    assert replies[0]["broker"] == "node-a"
    assert replies[0]["instances"] == {}


def test_spawn_creates_bound_instance(rig):
    _mom, rbroker, fleet = rig
    instance_id = fleet.spawn("widget")
    assert instance_id in rbroker.instances_for("widget")
    assert fleet.ping()[0]["instances"] == {"widget": 1}


def test_spawn_unknown_factory_raises(rig):
    _mom, _rbroker, fleet = rig
    with pytest.raises(RemoteInvocationError):
        fleet.spawn("nonexistent")


def test_get_object_info_reports_snapshots(rig):
    _mom, _rbroker, fleet = rig
    fleet.spawn("widget")
    fleet.spawn("widget")
    chunks = fleet.get_object_info("widget")
    snapshots = [s for chunk in chunks for s in chunk]
    assert len(snapshots) == 2
    assert all(s["oid"] == "widget" for s in snapshots)


def test_shutdown_only_owner_acts(rig):
    _mom, rbroker, fleet = rig
    instance_id = fleet.spawn("widget")
    acks = fleet.shutdown("widget", instance_id)
    assert acks == [True]
    assert rbroker.instances_for("widget") == {}
    # Second shutdown finds nothing.
    assert fleet.shutdown("widget", instance_id) == [False]


def test_crash_instance_is_abrupt(rig):
    _mom, rbroker, fleet = rig
    instance_id = fleet.spawn("widget")
    assert rbroker.crash_instance("widget", instance_id) is True
    assert rbroker.instances_for("widget") == {}
    assert rbroker.crash_instance("widget", instance_id) is False


def test_stop_cleans_all_instances(rig):
    _mom, rbroker, fleet = rig
    fleet.spawn("widget")
    fleet.spawn("widget")
    rbroker.stop()
    assert rbroker.instances_for("widget") == {}


def test_a_peer_reaches_only_the_fleet_interface(rig):
    """A skeleton runs the public method a peer names.  A crafted multicast
    ``stop`` and a crafted unicast ``register_factory`` must be refused:
    they are the node's local administration, not RemoteBrokerApi."""
    mom, rbroker, fleet = rig
    fleet.spawn("widget")
    codec = rbroker.broker.codec
    stop = codec.encode({"method": "stop", "args": []})
    mom.publish(
        multi_exchange_name(REMOTE_BROKER_OID),
        REMOTE_BROKER_OID,
        Message(stop, routing_key=REMOTE_BROKER_OID),
    )
    answers = []
    mom.declare_queue("answers")
    mom.consume("answers", answers.append, "answers", auto_ack=True)
    register = {
        "method": "register_factory",
        "args": ["gadget", None],
        "reply_to": "answers",
        "correlation_id": "c1",
    }
    mom.publish("", REMOTE_BROKER_OID, Message(codec.encode(register)))
    assert wait_for(lambda: answers)
    reply = codec.decode(answers[0].message.body)
    assert not reply["ok"] and "register_factory" in reply["error"]
    # The ping is multicast behind the crafted stop, so it is served after it.
    assert fleet.ping() == [{"broker": "node-a", "instances": {"widget": 1}}]
