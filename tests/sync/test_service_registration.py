"""SyncService registry hygiene: stable probe names, bounded proxy cache."""

from __future__ import annotations

import gc

from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker
from repro.sync import SyncService, service as sync_service
from repro.telemetry.control import HEALTH
from repro.telemetry.registry import REGISTRY


def make_service(**kwargs):
    mom = MessageBroker()
    broker = Broker(mom)
    service = SyncService(MemoryMetadataBackend(), broker, **kwargs)
    return service, broker, mom


def test_probe_names_are_unique_across_instance_lifetimes():
    """A respawned instance must never reuse a dead sibling's probe name.

    The old scheme derived the name from ``id(self)``; CPython reuses
    addresses after garbage collection, so a new instance could silently
    replace the registry entry of a dead one that had not been swept yet.
    The monotonic counter cannot collide.
    """
    seen = set()
    for _round in range(5):
        service, broker, mom = make_service()
        assert service.health_probe_name not in seen
        seen.add(service.health_probe_name)
        broker.close()
        mom.close()
        del service
        gc.collect()  # make address reuse as likely as possible


def test_probe_is_registered_and_reports():
    service, broker, mom = make_service()
    try:
        results = HEALTH.check()
        mine = [r for r in results if r.component == service.health_probe_name]
        assert len(mine) == 1
        assert mine[0].ok
    finally:
        broker.close()
        mom.close()


def test_two_live_services_report_independently():
    a, broker_a, mom_a = make_service()
    b, broker_b, mom_b = make_service()
    try:
        assert a.health_probe_name != b.health_probe_name
        components = {r.component for r in HEALTH.check()}
        assert {a.health_probe_name, b.health_probe_name} <= components
    finally:
        broker_a.close()
        mom_a.close()
        broker_b.close()
        mom_b.close()


def test_workspace_proxy_cache_is_lru_bounded(monkeypatch):
    monkeypatch.setattr(sync_service, "WORKSPACE_PROXY_CACHE_SIZE", 3)
    service, broker, mom = make_service()
    try:
        proxies = {wid: service._workspace(wid) for wid in ("w1", "w2", "w3")}
        assert len(service._workspace_proxies) == 3
        # Touch w1 so it becomes most-recently-used, then overflow.
        assert service._workspace("w1") is proxies["w1"]
        service._workspace("w4")
        assert len(service._workspace_proxies) == 3
        # w2 was least recently used and must be the eviction victim.
        assert "w2" not in service._workspace_proxies
        assert "w1" in service._workspace_proxies
        # A re-lookup of the evicted workspace builds a fresh proxy.
        assert service._workspace("w2") is not proxies["w2"]
    finally:
        broker.close()
        mom.close()


def test_workspace_proxy_cache_metrics_exported(monkeypatch):
    monkeypatch.setattr(sync_service, "WORKSPACE_PROXY_CACHE_SIZE", 2)
    service, broker, mom = make_service()
    try:
        service._workspace("w1")
        service._workspace("w1")
        service._workspace("w2")
        service._workspace("w3")  # evicts w1
        text = REGISTRY.render_prometheus()
        label = f'instance="{service.health_probe_name}"'
        assert f"sync_workspace_proxy_cache_size{{{label}}} 2.0" in text
        assert f"sync_workspace_proxy_cache_hits{{{label}}} 1.0" in text
        assert f"sync_workspace_proxy_cache_misses{{{label}}} 3.0" in text
        assert f"sync_workspace_proxy_cache_evictions{{{label}}} 1.0" in text
    finally:
        broker.close()
        mom.close()
