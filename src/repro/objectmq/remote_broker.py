"""RemoteBroker: the slave node of the Master/Slave elasticity model (§3.3).

A RemoteBroker is an ObjectMQ server that can launch and shut down remote
object instances on demand.  It registers *factories* — callables that
build a fresh server object for a given oid — and is itself bound as a
remote object under the well-known identifier ``omq.remotebroker``, so the
Supervisor can reach the whole fleet with @MultiMethod calls:

* ``ping()`` (multi+sync) — liveness + discovery;
* ``get_object_info(oid)`` (multi+sync) — introspection for provisioners;
* ``spawn(oid)`` (sync, unicast) — the MOM's work-queue balancing picks a
  broker, which instantiates and binds a new instance;
* ``shutdown(oid, instance_id)`` (multi+sync) — only the owner acts.

A skeleton runs whatever public method of its bound object a peer names,
so the node binds a :class:`_FleetEndpoint` that holds those four and
nothing else: ``stop``, ``serve``, ``crash_instance``, ``register_factory``
and ``instances_for`` stay local calls.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, List, Optional

from repro.errors import ProvisioningError
from repro.objectmq.annotations import (
    Remote,
    multi_method,
    remote_interface,
    sync_method,
)
from repro.objectmq.broker import Broker
from repro.objectmq.skeleton import Skeleton

logger = logging.getLogger(__name__)

#: Well-known oid every RemoteBroker binds itself under.
REMOTE_BROKER_OID = "omq.remotebroker"


@remote_interface
class RemoteBrokerApi(Remote):
    """Interface the Supervisor uses to manage the slave fleet."""

    @multi_method
    @sync_method(timeout=1.0, retry=0)
    def ping(self) -> dict:
        """Liveness probe; returns the broker id and its instance census."""
        raise NotImplementedError

    @multi_method
    @sync_method(timeout=1.0, retry=0)
    def get_object_info(self, oid: str) -> List[dict]:
        """Snapshots of every local instance bound under *oid*."""
        raise NotImplementedError

    @sync_method(timeout=2.0, retry=1)
    def spawn(self, oid: str) -> str:
        """Create and bind a new instance of *oid*; returns its instance id."""
        raise NotImplementedError

    @multi_method
    @sync_method(timeout=1.0, retry=0)
    def shutdown(self, oid: str, instance_id: str) -> bool:
        """Unbind *instance_id* if it lives here; returns True if it did."""
        raise NotImplementedError


class _FleetEndpoint:
    """The remote object bound under the fleet oid (RemoteBrokerApi)."""

    def __init__(self, node: "RemoteBroker"):
        self._node = node

    def ping(self) -> dict:
        return self._node.ping()

    def get_object_info(self, oid: str) -> List[dict]:
        return self._node.get_object_info(oid)

    def spawn(self, oid: str) -> str:
        return self._node.spawn(oid)

    def shutdown(self, oid: str, instance_id: str) -> bool:
        return self._node.shutdown(oid, instance_id)


class RemoteBroker:
    """Concrete slave node hosting dynamically spawned server objects."""

    def __init__(self, broker: Broker, broker_name: Optional[str] = None):
        self.broker = broker
        self.broker_name = broker_name or f"rbroker-{broker.client_id}"
        self._lock = threading.Lock()
        self._factories: Dict[str, Callable[[], object]] = {}
        self._instances: Dict[str, Dict[str, Skeleton]] = {}
        self._self_skeleton: Optional[Skeleton] = None

    # -- local administration ----------------------------------------------------

    def register_factory(self, oid: str, factory: Callable[[], object]) -> None:
        """Teach this node how to build server objects for *oid*."""
        with self._lock:
            self._factories[oid] = factory

    def serve(self) -> None:
        """Bind this RemoteBroker under the well-known fleet oid."""
        if self._self_skeleton is None:
            self._self_skeleton = self.broker.bind(REMOTE_BROKER_OID, _FleetEndpoint(self))

    def stop(self) -> None:
        """Shut down every hosted instance and leave the fleet."""
        with self._lock:
            hosted = [
                (oid, iid) for oid, insts in self._instances.items() for iid in insts
            ]
        for oid, instance_id in hosted:
            self.shutdown(oid, instance_id)
        if self._self_skeleton is not None:
            self.broker.unbind(self._self_skeleton)
            self._self_skeleton = None

    def instances_for(self, oid: str) -> Dict[str, Skeleton]:
        with self._lock:
            return dict(self._instances.get(oid, {}))

    def crash_instance(self, oid: str, instance_id: str) -> bool:
        """Fault-injection hook: kill without graceful handover."""
        with self._lock:
            skeleton = self._instances.get(oid, {}).pop(instance_id, None)
        if skeleton is None:
            return False
        skeleton.kill()
        return True

    # -- RemoteBrokerApi implementation ------------------------------------------------

    def ping(self) -> dict:
        with self._lock:
            census = {oid: len(insts) for oid, insts in self._instances.items()}
        return {"broker": self.broker_name, "instances": census}

    def get_object_info(self, oid: str) -> List[dict]:
        with self._lock:
            skeletons = list(self._instances.get(oid, {}).values())
        return [sk.object_info.snapshot().to_wire() for sk in skeletons]

    def spawn(self, oid: str) -> str:
        with self._lock:
            factory = self._factories.get(oid)
        if factory is None:
            raise ProvisioningError(
                f"{self.broker_name} has no factory for oid {oid!r}"
            )
        target = factory()
        skeleton = self.broker.bind(oid, target)
        with self._lock:
            self._instances.setdefault(oid, {})[skeleton.instance_id] = skeleton
        logger.info("%s spawned %s", self.broker_name, skeleton.instance_id)
        return skeleton.instance_id

    def shutdown(self, oid: str, instance_id: str) -> bool:
        with self._lock:
            skeleton = self._instances.get(oid, {}).pop(instance_id, None)
        if skeleton is None:
            return False
        self.broker.unbind(skeleton)
        logger.info("%s shut down %s", self.broker_name, instance_id)
        return True
