"""Tests for multicast quorum, watcher excludes and online learning."""

from __future__ import annotations

import threading
import time

import pytest

from repro.mom import MessageBroker
from repro.objectmq import (
    Broker,
    Remote,
    interface_specs,
    multi_method,
    remote_interface,
    sync_method,
)


# -- multicast quorum -----------------------------------------------------------------


@remote_interface
class ReplicaApi(Remote):
    @multi_method(quorum=2)
    @sync_method(timeout=3.0, retry=0)
    def read(self):
        ...

    @multi_method
    @sync_method(timeout=0.5, retry=0)
    def read_all(self):
        ...


class Replica:
    def __init__(self, name, delay=0.0):
        self.name = name
        self.delay = delay
        # A straggler waits on this rather than sleeping, so its test can
        # let it go before closing the brokers under it.
        self.release = threading.Event()

    def read(self):
        if self.delay:
            self.release.wait(self.delay)
        return self.name

    def read_all(self):
        if self.delay:
            self.release.wait(self.delay)
        return self.name


def test_quorum_spec_recorded():
    specs = interface_specs(ReplicaApi)
    assert specs["read"].quorum == 2
    assert specs["read"].multi and specs["read"].kind == "sync"
    assert specs["read_all"].quorum is None


def test_quorum_returns_after_n_replies():
    mom = MessageBroker()
    server = Broker(mom)
    # Two fast replicas, one pathologically slow.
    server.bind("replica", Replica("fast-1"))
    server.bind("replica", Replica("fast-2"))
    slow = Replica("slow", delay=2.0)
    server.bind("replica", slow)
    client = Broker(mom)
    proxy = client.lookup("replica", ReplicaApi)

    started = time.monotonic()
    results = proxy.read()
    elapsed = time.monotonic() - started
    assert len(results) == 2
    assert set(results) <= {"fast-1", "fast-2"}
    assert elapsed < 1.0  # did not wait for the slow replica
    slow.release.set()
    client.close()
    server.close()
    mom.close()


def test_no_quorum_waits_for_timeout_with_straggler():
    mom = MessageBroker()
    server = Broker(mom)
    server.bind("replica", Replica("fast"))
    slow = Replica("slow", delay=5.0)
    server.bind("replica", slow)
    client = Broker(mom)
    proxy = client.lookup("replica", ReplicaApi)
    results = proxy.read_all()  # 0.5s timeout, slow replica misses it
    assert results == ["fast"]
    slow.release.set()
    client.close()
    server.close()
    mom.close()


# -- watcher exclusion patterns ----------------------------------------------------------


def test_watcher_excludes_noise_files():
    from repro.client import PollingWatcher, VirtualFilesystem

    fs = VirtualFilesystem()
    watcher = PollingWatcher(fs)
    watcher.prime()
    fs.write("real.txt", b"keep me")
    fs.write("scratch.tmp", b"ignore me")
    fs.write("draft.swp", b"ignore me")
    fs.write(".DS_Store", b"ignore me")
    fs.write("docs/notes~", b"ignore me")
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [("ADD", "real.txt")]


def test_watcher_custom_excludes():
    from repro.client import PollingWatcher, VirtualFilesystem

    fs = VirtualFilesystem()
    watcher = PollingWatcher(fs, excludes=("secret/*",))
    watcher.prime()
    fs.write("secret/key.pem", b"x")
    fs.write("normal.tmp", b"x")  # default excludes replaced
    events = watcher.scan_once()
    assert [(e.kind, e.path) for e in events] == [("ADD", "normal.tmp")]


def test_excluded_files_never_reach_the_server(testbed):
    c1 = testbed.client(device_id="d1")
    c2 = testbed.client(device_id="d2")
    c1.fs.write("work.txt", b"content")
    c1.fs.write("work.txt.tmp", b"editor scratch")
    c1.scan()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and not c2.fs.exists("work.txt"):
        time.sleep(0.05)
    assert c2.fs.exists("work.txt")
    time.sleep(0.3)
    assert not c2.fs.exists("work.txt.tmp")


# -- combined provisioner online learning ---------------------------------------------------


def test_online_learning_populates_history():
    from repro.elasticity import (
        CombinedProvisioner,
        PredictiveProvisioner,
        ReactiveProvisioner,
    )
    from repro.objectmq.introspection import PoolObservation

    predictive = PredictiveProvisioner(period=10.0, day_length=100.0)
    combined = CombinedProvisioner(
        predictive,
        ReactiveProvisioner(predictive=predictive),
        predictive_interval=10.0,
        reactive_interval=5.0,
        online_learning=True,
    )

    def obs(t, rate):
        return PoolObservation(
            oid="svc", timestamp=t, instance_count=1, queue_depth=0,
            arrival_rate=rate, interarrival_variance=0.0,
            mean_service_time=0.05, service_time_variance=0.0,
        )

    assert predictive.predicted_rate(0.0) == 0.0
    combined.propose(obs(0.0, 40.0))
    # The observation was recorded: next day's same period predicts it.
    assert predictive.predicted_rate(100.0) == 40.0
