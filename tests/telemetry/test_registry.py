"""MetricsRegistry: labeled series from weakref sources."""

from __future__ import annotations

import gc

import pytest

from repro.telemetry.registry import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_source_scraped_lazily(registry):
    class Meter:
        def __init__(self):
            self.reads = 0

        def scrape(self):
            self.reads += 1
            return {"value": 7}

    meter = Meter()
    registry.register_source("meter", meter, Meter.scrape, kind="test")
    assert meter.reads == 0
    snap = registry.snapshot()
    assert meter.reads == 1
    assert snap['meter_value{kind="test"}'] == 7


def test_dead_source_pruned(registry):
    class Meter:
        def scrape(self):
            return {"value": 1}

    meter = Meter()
    registry.register_source("meter", meter, Meter.scrape)
    assert "meter_value" in registry.snapshot()
    del meter
    gc.collect()
    assert "meter_value" not in registry.snapshot()


def test_dead_source_slot_reclaimed_not_just_hidden(registry):
    """Regression: a gc'd owner must be pruned from the source table by the
    first scrape, not merely filtered out of every snapshot forever."""

    class Meter:
        def scrape(self):
            return {"value": 1}

    meter = Meter()
    registry.register_source("meter", meter, Meter.scrape)
    keeper = Meter()
    registry.register_source("keeper", keeper, Meter.scrape)
    assert registry.source_count() == 2

    del meter
    gc.collect()
    # Still 2 slots until something prunes.
    assert registry.source_count() == 2

    first = registry.snapshot()
    assert "meter_value" not in first and "keeper_value" in first
    # The first scrape reclaimed the dead slot...
    assert registry.source_count() == 1
    # ...so a second scrape has nothing left to prune.
    second = registry.snapshot()
    assert second == first
    assert registry.source_count() == 1


def test_unregister_source(registry):
    class Meter:
        def scrape(self):
            return {"value": 1}

    meter = Meter()
    token = registry.register_source("meter", meter, Meter.scrape)
    registry.unregister_source(token)
    assert registry.snapshot() == {}


class _Values:
    """A source owner that reports fixed values."""

    def __init__(self, **values):
        self.values = values

    def read(self):
        return self.values


def test_render_prometheus_sorted_lines(registry):
    b, a = _Values(value=1.0), _Values(value=2.0)
    registry.register_source("b", b, _Values.read)
    registry.register_source("a", a, _Values.read, x="1")
    text = registry.render_prometheus()
    assert text == 'a_value{x="1"} 2.0\nb_value 1.0\n'


def test_clear(registry):
    meter = _Values(value=1.0)
    registry.register_source("c", meter, _Values.read)
    registry.clear()
    assert registry.snapshot() == {}
    assert registry.source_count() == 0


def test_components_register_into_global_registry(testbed):
    from repro.telemetry import REGISTRY

    client = testbed.client(device_id="metered")
    client.put_file("a.txt", b"x" * 100)
    snap = REGISTRY.snapshot()
    assert snap['client_traffic_commits_sent{device="metered"}'] >= 1
    assert snap['mom_broker_publishes{broker="broker"}'] > 0
    assert any(key.startswith("storage_proxy_bytes_in") for key in snap)
    assert any(key.startswith("omq_instance_processed") for key in snap)
    assert snap['client_traffic_chunk_uploads{device="metered"}'] >= 1
    assert any(key.startswith("omq_proxy_calls") for key in snap)
