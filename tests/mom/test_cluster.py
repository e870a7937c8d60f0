"""Unit tests for the HA broker cluster: failover without message loss."""

from __future__ import annotations

import pytest

from repro.errors import BrokerClosed
from repro.mom import BrokerCluster, Message, PERSISTENT

from tests.mom.test_broker_server import drain, wait_for


def test_failover_promotes_standby_and_recovers_persistent_messages():
    cluster = BrokerCluster(size=2)
    cluster.declare_queue("q", durable=True)
    cluster.publish("", "q", Message(b"keep", delivery_mode=PERSISTENT))
    old = cluster.active

    promoted = cluster.fail_primary()
    assert promoted is not old
    assert cluster.generation == 1
    assert [m.body for m in drain(cluster, "q")] == [b"keep"]
    cluster.close()


def test_failover_listener_invoked():
    cluster = BrokerCluster(size=2)
    generations = []
    cluster.on_failover(generations.append)
    cluster.fail_primary()
    assert generations == [1]
    cluster.close()


def test_exhausted_cluster_raises():
    cluster = BrokerCluster(size=1)
    with pytest.raises(BrokerClosed):
        cluster.fail_primary()
    cluster.close()


def test_add_standby_extends_failover_chain():
    cluster = BrokerCluster(size=1)
    cluster.add_standby()
    cluster.declare_queue("q", durable=True)
    cluster.publish("", "q", Message(b"m", delivery_mode=PERSISTENT))
    cluster.fail_primary()
    assert [m.body for m in drain(cluster, "q")] == [b"m"]
    cluster.close()


def test_acked_messages_not_replayed_after_failover():
    cluster = BrokerCluster(size=2)
    cluster.declare_queue("q", durable=True)
    cluster.publish("", "q", Message(b"m", delivery_mode=PERSISTENT))
    got = []

    def handler(delivery):
        cluster.ack_many([delivery])  # ack first: the test polls `got`, then reads the ack
        got.append(delivery)

    cluster.consume("q", handler, consumer_tag="c")
    assert wait_for(lambda: got)
    cluster.fail_primary()
    assert drain(cluster, "q") == []
    cluster.close()
