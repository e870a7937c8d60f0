"""Nothing is formatted for a tracer that is off.

The proxy's four invocation paths and ``SyncService.commit_request`` ask
``TRACER.enabled`` before they build a span name or an attrs dict; with the
tracer on, the spans are what they always were.
"""

from __future__ import annotations

from repro.metadata import MemoryMetadataBackend
from repro.sync import SyncService, Workspace
from repro.telemetry import TRACER, Tracer, disable, enable
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


def test_no_span_is_asked_for_while_the_tracer_is_off(rig, monkeypatch):
    asked = []
    real = Tracer.span

    def counting(self, name, *args, **kwargs):
        asked.append(name)
        return real(self, name, *args, **kwargs)

    monkeypatch.setattr(Tracer, "span", counting)
    drive(rig)
    assert asked == []
    enable()  # ... and the counter does count
    try:
        rig[2].lookup("counter", CounterApi).add(1)
    finally:
        disable()
    assert asked[:2] == ["proxy.cast:add", "proxy.serialize:add"]


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
