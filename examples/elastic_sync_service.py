#!/usr/bin/env python
"""Elastic SyncService: Supervisor + RemoteBrokers + provisioning policies.

Demonstrates the paper's §3.3/§4.3 machinery live:

1. two RemoteBroker "machines" register a SyncService factory;
2. a Supervisor enforces a reactive provisioning policy sized by the
   G/G/1 model (equations 1-2);
3. a load generator ramps commit traffic up and down;
4. the pool grows and shrinks to track it; a deliberate crash is healed
   by the census loop.

    python examples/elastic_sync_service.py
"""

from __future__ import annotations

import random
import threading
import time

from repro.elasticity import PAPER_PARAMETERS, ReactiveProvisioner, SlaParameters
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker, RemoteBroker, Supervisor
from repro.sync import SYNC_SERVICE_OID, SyncServiceApi, Workspace, sync_service_factory
from repro.sync.models import ItemMetadata


def main() -> None:
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    metadata.create_user("load")
    workspace = Workspace(workspace_id="ws-load", owner="load")
    metadata.create_workspace(workspace)

    # Two slave "machines", each able to spawn SyncService instances.
    # The artificial 20 ms service delay mimics the paper's measured
    # commit cost so a single instance saturates visibly.
    machines = []
    for name in ("machine-a", "machine-b"):
        broker = Broker(mom)
        rbroker = RemoteBroker(broker, broker_name=name)
        rbroker.register_factory(
            SYNC_SERVICE_OID,
            sync_service_factory(metadata, broker, service_delay=lambda: 0.02),
        )
        rbroker.serve()
        machines.append(rbroker)

    # Reactive-only provisioning with a snappy SLA, so scaling is visible
    # in a few seconds of wall clock.
    params = SlaParameters(d=0.2, s=0.02, sigma_b2=PAPER_PARAMETERS.sigma_b2)
    sup_broker = Broker(mom)
    supervisor = Supervisor(
        sup_broker,
        SYNC_SERVICE_OID,
        ReactiveProvisioner(predictive=None, params=params),
        control_interval=0.5,
        max_instances=8,
    )
    supervisor.step()  # initial spawn
    supervisor.start()

    # Load generator: ramp 5 -> 120 -> 5 commits/second.
    client_broker = Broker(mom)
    proxy = client_broker.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    stop = threading.Event()
    rate = [5.0]

    def generate() -> None:
        counter = 0
        rng = random.Random(1)
        while not stop.is_set():
            counter += 1
            item = ItemMetadata(
                workspace_id="ws-load",
                version=1,
                filename=f"f{counter}",
                device_id="loadgen",
            )
            proxy.commit_request("ws-load", "loadgen", [item])
            time.sleep(rng.expovariate(rate[0]))

    generator = threading.Thread(target=generate, daemon=True)
    generator.start()

    def pool_size() -> int:
        return sum(len(m.instances_for(SYNC_SERVICE_OID)) for m in machines)

    print("phase 1: light load (5 commits/s)")
    time.sleep(3)
    print(f"  instances: {pool_size()}")

    print("phase 2: heavy load (120 commits/s) — watch the pool grow")
    rate[0] = 120.0
    for _ in range(4):
        time.sleep(2)
        print(f"  instances: {pool_size()}  queue depth: "
              f"{mom.queue_stats(SYNC_SERVICE_OID)['ready']}")

    print("phase 3: crash an instance — the Supervisor heals it")
    for machine in machines:
        instances = machine.instances_for(SYNC_SERVICE_OID)
        if instances:
            victim = next(iter(instances))
            machine.crash_instance(SYNC_SERVICE_OID, victim)
            print(f"  crashed {victim} on {machine.broker_name}")
            break
    time.sleep(2)
    print(f"  instances after heal: {pool_size()}")

    print("phase 4: back to light load — the pool shrinks")
    rate[0] = 5.0
    for _ in range(4):
        time.sleep(2.5)
        print(f"  instances: {pool_size()}")

    stop.set()
    generator.join(timeout=2)
    supervisor.stop()
    for machine in machines:
        machine.stop()
    client_broker.close()
    sup_broker.close()
    mom.close()
    print("done.")


if __name__ == "__main__":
    main()
