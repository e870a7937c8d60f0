"""Tests for supervisor HA failover."""

from __future__ import annotations

import time

from repro.mom import MessageBroker
from repro.objectmq import Broker, FixedProvisioner, RemoteBroker, Supervisor
from repro.objectmq.ha import SupervisorNode


# -- Supervisor HA ---------------------------------------------------------------------


class Worker:
    def work(self):
        return "ok"


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_supervisor_failover_restores_control_loop():
    mom = MessageBroker()
    host = Broker(mom)
    rbroker = RemoteBroker(host)
    rbroker.register_factory("worker", Worker)
    rbroker.serve()

    clock = FakeClock()

    def make_node(node_id):
        broker = Broker(mom)

        def factory():
            return Supervisor(broker, "worker", FixedProvisioner(2))

        return SupervisorNode(
            mom,
            factory,
            node_id=node_id,
            heartbeat_timeout=2.0,
            settle_window=0.3,
            clock=clock,
        )

    primary = make_node("a-primary")
    standby = make_node("b-standby")

    # Bootstrap: primary leads and enforces 2 instances.
    primary.lead()
    primary.tick()
    assert len(rbroker.instances_for("worker")) == 2
    time.sleep(0.1)  # heartbeat fanout propagation

    # Primary dies; an instance crashes while nobody supervises.
    primary.crash()
    victim = next(iter(rbroker.instances_for("worker")))
    rbroker.crash_instance("worker", victim)
    assert len(rbroker.instances_for("worker")) == 1

    # Standby detects silence, elects itself, repairs the pool.
    clock.t += 3.0
    standby.tick()  # starts election
    time.sleep(0.15)  # candidate fanout propagation
    clock.t += 0.5
    standby.tick()  # decides + first control step
    assert standby.is_leader
    assert standby.supervisor is not None
    assert len(rbroker.instances_for("worker")) == 2

    standby.stop()
    rbroker.stop()
    host.close()
    mom.close()


def test_standby_stays_passive_while_leader_alive():
    mom = MessageBroker()
    clock = FakeClock()

    def factory():
        raise AssertionError("standby must not build a supervisor")

    standby = SupervisorNode(
        mom, factory, node_id="standby", heartbeat_timeout=5.0, clock=clock
    )
    from repro.objectmq import HeartbeatEmitter

    emitter = HeartbeatEmitter(mom, "leader")
    for _ in range(3):
        clock.t += 2.0
        emitter.beat()
        time.sleep(0.05)
        standby.tick()
    assert not standby.is_leader
    assert standby.supervisor is None
    standby.stop()
    mom.close()
