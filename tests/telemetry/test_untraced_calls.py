"""Nothing is formatted for a tracer that is off.

The proxy's stubs ask ``TRACER.enabled`` before they enter a span, and enter
no context manager at all while it is off; the chunk transfers and the client's ``put_file`` /
``delete_file`` / flush / fetch ask it before they build an attrs dict; and
the commit path (``SyncService.commit_request``, its notification, the
metadata engines' transaction) asks it before it asks for a span at all.
With the tracer on, the spans are what they always were.
"""

from __future__ import annotations

import sys

import pytest

from repro.metadata import MemoryMetadataBackend
from repro.objectmq import proxy as proxy_module
from repro.sync import SyncService, Workspace
from repro.telemetry import TRACER, Tracer, disable, enable
from tests.conftest import SyncTestbed
from tests.objectmq.test_wire_boundary import Counter, CounterApi, rig, wait_for  # noqa: F401
from tests.sync.test_service import proposal


def drive(rig):
    """One cast, one sync call, one multicast, one multicast call."""
    mom, server, client = rig
    counter = Counter()
    server.bind("counter", counter)
    proxy = client.lookup("counter", CounterApi)
    proxy.add(5)
    assert wait_for(lambda: counter.value == 5)
    assert proxy.total() == 5
    assert proxy.reset() == 1
    assert wait_for(lambda: counter.value == 0)
    assert proxy.totals() == [0]


@pytest.fixture
def asked(monkeypatch):
    """Every ``Tracer.span`` call, as ``(name, attrs)``."""
    calls = []
    real = Tracer.span

    def counting(self, name, layer, parent=None, attrs=None):
        calls.append((name, attrs))
        return real(self, name, layer, parent=parent, attrs=attrs)

    monkeypatch.setattr(Tracer, "span", counting)
    return calls


def sync_one_file(backend):
    """``put_file`` on one device, applied on a second, over *backend*."""
    bed = SyncTestbed(backend=backend)
    try:
        writer, reader = bed.client(device_id="dev-a"), bed.client(device_id="dev-b")
        item = writer.put_file("a.txt", b"payload" * 300)
        assert reader.wait_for_version(item.item_id, item.version, timeout=5.0)
        assert reader.fs.read("a.txt") == b"payload" * 300
    finally:
        bed.close()


def test_no_span_is_asked_for_while_the_tracer_is_off(rig, asked):
    drive(rig)
    assert asked == []
    enable()  # ... and the counter does count
    try:
        rig[2].lookup("counter", CounterApi).add(1)
    finally:
        disable()
    assert [name for name, _ in asked[:2]] == ["proxy.cast:add", "proxy.serialize:add"]


def test_a_cast_calls_nothing_for_tracing_while_the_tracer_is_off(rig):
    """No Python call goes to a context manager or the tracer on the caller's
    thread for a cast and a multicast: a ``nullcontext`` cost two per call."""
    mom, server, client = rig
    counter = Counter()
    server.bind("counter", counter)
    proxy = client.lookup("counter", CounterApi)
    called = []

    def profile(frame, event, arg):
        if event == "call":
            called.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        proxy.add(5)
        proxy.reset()
    finally:
        sys.setprofile(None)
    assert any(name.endswith("proxy.py") for name in called)
    assert [name for name in called if name.endswith(("contextlib.py", "trace.py"))] == []
    assert wait_for(lambda: counter.value == 0)


def test_each_request_is_built_inside_its_proxy_span(rig, monkeypatch):
    built, real = [], proxy_module.make_request

    def spying(*args, **kwargs):
        built.append(TRACER.current())
        return real(*args, **kwargs)

    monkeypatch.setattr(proxy_module, "make_request", spying)
    enable()
    try:
        drive(rig)
    finally:
        disable()
    names = {span.span_id: span.name for span in TRACER.spans()}
    assert [names[context.span_id] for context in built] == [
        "proxy.cast:add", "proxy.call:total", "proxy.multicast:reset",
        "proxy.multicall:totals",
    ]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_no_attrs_are_built_while_the_tracer_is_off(asked, backend):
    sync_one_file(backend)
    names = {name for name, _ in asked}
    assert names >= {
        "client.put_file", "storage.put_chunk", "client.flush",
        "client.fetch_content", "storage.get_chunk",
    }
    assert not names & {"sync.commit_request", "sync.notify_commit", "metadata.txn"}
    assert [(name, attrs) for name, attrs in asked if attrs is not None] == []


def test_span_names_and_attrs_with_the_tracer_on(rig):
    enable()
    try:
        drive(rig)
        metadata = MemoryMetadataBackend()
        metadata.create_user("alice")
        metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
        SyncService(metadata, rig[1]).commit_request("ws", "dev-1", [proposal()])
    finally:
        disable()
    spans = {span.name: span for span in TRACER.spans()}
    for name in ("proxy.cast:add", "proxy.call:total", "proxy.multicast:reset",
                 "proxy.multicall:totals"):
        assert spans[name].layer == "proxy" and spans[name].attrs == {}
    for name in ("add", "total", "reset", "totals"):
        assert f"proxy.serialize:{name}" in spans
        assert spans[f"skeleton.dispatch:{name}"].attrs["oid"] == "counter"
    commit = spans["sync.commit_request"]
    assert commit.layer == "sync"
    assert commit.attrs == {"workspace": "ws", "proposals": 1}
    assert spans["metadata.txn"].attrs == {
        "backend": "MemoryMetadataBackend", "proposals": 1,
    }


def test_data_path_attrs_with_the_tracer_on():
    enable()
    try:
        sync_one_file("sqlite")
    finally:
        disable()
    spans = {span.name: span for span in TRACER.spans()}
    assert spans["metadata.txn"].attrs == {
        "backend": "SqliteMetadataBackend", "proposals": 1,
    }
    put = spans["storage.put_chunk"]
    assert put.layer == "storage"
    assert set(put.attrs) == {"fingerprint", "nbytes", "attempts"}
    assert put.attrs["attempts"] == 1 and put.attrs["nbytes"] > 0
    assert spans["storage.get_chunk"].attrs["fingerprint"] == put.attrs["fingerprint"]
    assert spans["client.put_file"].attrs == {
        "path": "a.txt", "nbytes": 2100, "device": "dev-a",
    }
