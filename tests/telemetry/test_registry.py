"""MetricsRegistry: instruments, labeled series, weakref sources."""

from __future__ import annotations

import gc

import pytest

from repro.telemetry.registry import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_get_or_create_and_labels(registry):
    a = registry.counter("requests", oid="svc")
    b = registry.counter("requests", oid="svc")
    c = registry.counter("requests", oid="other")
    assert a is b and a is not c
    a.inc()
    a.inc(2)
    snap = registry.snapshot()
    assert snap['requests{oid="svc"}'] == 3
    assert snap['requests{oid="other"}'] == 0


def test_counter_rejects_negative(registry):
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)


def test_gauge_set_inc_dec(registry):
    gauge = registry.gauge("depth", queue="q")
    gauge.set(5)
    gauge.inc()
    gauge.dec(2)
    assert registry.snapshot()['depth{queue="q"}'] == 4


def test_histogram_summary(registry):
    histogram = registry.histogram("latency")
    for value in (0.1, 0.2, 0.3, 0.4):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["sum"] == pytest.approx(1.0)
    assert summary["max"] == 0.4
    assert summary["mean"] == pytest.approx(0.25)
    assert summary["p50"] == pytest.approx(0.25)
    snap = registry.snapshot()
    assert snap["latency_count"] == 4
    assert snap["latency_p95"] == pytest.approx(histogram.percentile(0.95))


def test_histogram_reservoir_is_bounded(registry):
    histogram = registry.histogram("h")
    for i in range(histogram.RESERVOIR_SIZE + 100):
        histogram.observe(float(i))
    # Exact aggregates over everything; percentiles over the window.
    assert histogram.count == histogram.RESERVOIR_SIZE + 100
    assert histogram.percentile(0.0) == 100.0


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


def test_render_prometheus_sorted_lines(registry):
    registry.counter("b").inc()
    registry.counter("a", x="1").inc(2)
    text = registry.render_prometheus()
    assert text == 'a{x="1"} 2.0\nb 1.0\n'


def test_clear(registry):
    registry.counter("c").inc()
    registry.clear()
    assert registry.snapshot() == {}


def test_components_register_into_global_registry(testbed):
    from repro.telemetry import REGISTRY

    client = testbed.client(device_id="metered")
    client.put_file("a.txt", b"x" * 100)
    snap = REGISTRY.snapshot()
    assert snap['client_traffic_commits_sent{device="metered"}'] >= 1
    assert snap['mom_broker_publishes{broker="broker"}'] > 0
    assert any(key.startswith("storage_proxy_bytes_in") for key in snap)
    assert any(key.startswith("omq_instance_processed") for key in snap)
    assert any(key.startswith("transfer_pool_chunks_up") for key in snap)
    assert any(key.startswith("omq_proxy_calls") for key in snap)
