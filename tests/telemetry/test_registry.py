"""MetricsRegistry: labeled series from weakref sources."""

from __future__ import annotations

import gc
import threading

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


def test_label_order_does_not_change_series_or_component(registry):
    forward, reverse = _Values(up=1.0, value=3.0), _Values(up=1.0, value=3.0)
    registry.register_source("fwd", forward, _Values.read, oid="ws", instance="i-1")
    registry.register_source("rev", reverse, _Values.read, instance="i-1", oid="ws")
    snap = registry.snapshot()
    assert snap['fwd_value{instance="i-1",oid="ws"}'] == 3.0
    assert snap['rev_value{instance="i-1",oid="ws"}'] == 3.0
    assert [c["component"] for c in registry.health()] == [
        'fwd{instance="i-1",oid="ws"}',
        'rev{instance="i-1",oid="ws"}',
    ]


def test_concurrent_register_and_unregister_keep_the_count_exact(registry):
    owners = [_Values(value=1.0) for _ in range(8)]
    kept = []
    start = threading.Barrier(len(owners))

    def churn(n, owner):
        start.wait()
        for i in range(200):
            token = registry.register_source("s", owner, _Values.read, n=n, i=i)
            if i % 2:
                registry.unregister_source(token)
        kept.append(n)

    threads = [
        threading.Thread(target=churn, args=(n, owner)) for n, owner in enumerate(owners)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(kept) == list(range(8))
    assert registry.source_count() == 8 * 100
    assert len(registry.snapshot()) == 8 * 100


def test_a_collected_owners_labeled_series_drop_out_of_the_scrape(registry):
    read_before, never_read, keeper = (_Values(up=1.0, value=1.0) for _ in range(3))
    registry.register_source("a", read_before, _Values.read, oid="ws")
    assert 'a_value{oid="ws"}' in registry.snapshot()
    registry.register_source("b", never_read, _Values.read, oid="ws")
    registry.register_source("c", keeper, _Values.read, oid="ws")
    del read_before, never_read
    gc.collect()
    assert registry.snapshot() == {'c_up{oid="ws"}': 1.0, 'c_value{oid="ws"}': 1.0}
    assert [c["component"] for c in registry.health()] == ['c{oid="ws"}']
    assert registry.source_count() == 1


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
