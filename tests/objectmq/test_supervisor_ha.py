"""Tests for supervisor HA: the lease is one unacked message (§3.4)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.mom import MessageBroker
from repro.objectmq import Broker, FixedProvisioner, RemoteBroker, Supervisor
from repro.objectmq.ha import SupervisorNode


class Worker:
    def work(self):
        return "ok"


def wait_for(predicate, timeout=1.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


@pytest.fixture
def fleet():
    """A MOM, one RemoteBroker host serving ``worker``, and a node factory."""
    mom = MessageBroker()
    host = Broker(mom)
    rbroker = RemoteBroker(host)
    rbroker.register_factory("worker", Worker)
    rbroker.serve()
    brokers = []

    def make_node(node_id):
        broker = Broker(mom)
        brokers.append(broker)

        def factory():
            return Supervisor(
                broker, "worker", FixedProvisioner(2), control_interval=0.02
            )

        return SupervisorNode(mom, factory, node_id)

    yield rbroker, make_node
    for broker in brokers:
        broker.close()
    rbroker.stop()
    host.close()
    mom.close()


def test_supervisor_failover_restores_control_loop(fleet):
    rbroker, make_node = fleet
    nodes = [make_node(name) for name in ("a", "b", "c")]
    nodes[0].lead()
    for node in nodes[1:]:
        node.start()
    assert wait_for(lambda: len(rbroker.instances_for("worker")) == 2)

    # Sample leadership throughout: no sample may ever see two leaders.
    most_leaders = []
    done = threading.Event()

    def sample():
        while not done.is_set():
            most_leaders.append(sum(node.is_leader for node in nodes))
            time.sleep(0.001)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        for _ in range(2):
            (leader,) = [node for node in nodes if node.is_leader]
            leader.crash()
            nodes.remove(leader)
            # An instance dies while nobody supervises.
            victim = next(iter(rbroker.instances_for("worker")))
            rbroker.crash_instance("worker", victim)
            assert len(rbroker.instances_for("worker")) == 1
            # Exactly one survivor takes the lease within 1 s, and its
            # first control step repairs the pool.
            assert wait_for(lambda: sum(node.is_leader for node in nodes) == 1)
            assert wait_for(lambda: len(rbroker.instances_for("worker")) == 2)
    finally:
        done.set()
        sampler.join()
    assert most_leaders and max(most_leaders) <= 1
    nodes[0].stop()


def test_standby_stays_passive_while_leader_alive(fleet):
    _rbroker, make_node = fleet
    leader = make_node("leader")
    leader.lead()
    assert wait_for(lambda: leader.is_leader)
    built = []
    standby = SupervisorNode(leader.mom, lambda: built.append("standby"), "standby")
    standby.lead()  # a second bootstrap finds the lease held: no second lease
    # Let the leader run a few control periods while the standby waits.
    supervisor = leader.supervisor
    steps = len(supervisor.history.records)
    assert wait_for(lambda: len(supervisor.history.records) >= steps + 5)
    assert built == [] and not standby.is_leader and leader.is_leader
    standby.stop()
    leader.stop()


def test_standby_stops_without_disturbing_the_leader(fleet):
    rbroker, make_node = fleet
    leader, standby = make_node("leader"), make_node("standby")
    leader.lead()
    standby.start()
    assert wait_for(lambda: leader.is_leader)
    standby.stop()
    assert leader.is_leader and not standby.is_leader
    supervisor = leader.supervisor
    steps = len(supervisor.history.records)
    assert wait_for(lambda: len(supervisor.history.records) > steps)
    assert len(rbroker.instances_for("worker")) == 2
    leader.stop()
