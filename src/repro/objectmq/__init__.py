"""ObjectMQ: programmatic elasticity for distributed objects over messaging.

The paper's core contribution (§3).  Typical usage, mirroring Fig 2::

    from repro.mom import MessageBroker
    from repro.objectmq import (
        Broker, Remote, remote_interface, async_method, sync_method,
    )

    @remote_interface
    class HelloWorld(Remote):
        @sync_method(timeout=1.0)
        def hello(self, who):
            ...

    class HelloServer:
        def hello(self, who):
            return f"hello {who}"

    mom = MessageBroker()
    server_broker = Broker(mom)
    server_broker.bind("hello", HelloServer())

    client_broker = Broker(mom)
    hello = client_broker.lookup("hello", HelloWorld)
    assert hello.hello("world") == "hello world"
"""

from repro.objectmq.annotations import (
    CallSpec,
    Remote,
    async_method,
    interface_specs,
    is_remote_interface,
    multi_method,
    remote_interface,
    sync_method,
)
from repro.objectmq.broker import Broker
from repro.objectmq.naming import multi_exchange_name, parse_shard_oid, shard_oid
from repro.objectmq.sharding import ShardedProxy
from repro.objectmq.faults import CrashInjector
from repro.objectmq.introspection import (
    HasObjectInfo,
    ObjectInfo,
    ObjectInfoSnapshot,
    PoolObservation,
)
from repro.objectmq.provisioner import (
    FixedProvisioner,
    Provisioner,
    QueueDepthProvisioner,
    UtilizationProvisioner,
)
from repro.objectmq.proxy import Proxy
from repro.objectmq.remote_broker import REMOTE_BROKER_OID, RemoteBroker, RemoteBrokerApi
from repro.objectmq.skeleton import Skeleton
from repro.objectmq.supervisor import (
    ArrivalMonitor,
    ShardedSupervisor,
    Supervisor,
    SupervisorRecord,
)

__all__ = [
    "REMOTE_BROKER_OID",
    "ArrivalMonitor",
    "Broker",
    "CallSpec",
    "CrashInjector",
    "FixedProvisioner",
    "HasObjectInfo",
    "ObjectInfo",
    "ObjectInfoSnapshot",
    "PoolObservation",
    "Provisioner",
    "Proxy",
    "QueueDepthProvisioner",
    "Remote",
    "RemoteBroker",
    "RemoteBrokerApi",
    "ShardedProxy",
    "ShardedSupervisor",
    "Skeleton",
    "Supervisor",
    "SupervisorRecord",
    "UtilizationProvisioner",
    "async_method",
    "interface_specs",
    "is_remote_interface",
    "multi_exchange_name",
    "multi_method",
    "parse_shard_oid",
    "remote_interface",
    "shard_oid",
    "sync_method",
]
