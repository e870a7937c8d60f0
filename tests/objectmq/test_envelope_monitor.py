"""Tests for the envelope helpers, naming and the ArrivalMonitor."""

from __future__ import annotations

import pytest

from repro.errors import RemoteInvocationError
from repro.objectmq.envelope import (
    Reply,
    Request,
    make_reply,
    make_request,
    new_correlation_id,
)
from repro.objectmq.naming import multi_exchange_name, response_queue_name
from repro.objectmq.proxy import Proxy
from repro.objectmq.supervisor import ArrivalMonitor


def test_request_envelope_shape():
    """A request carries only what its receiver reads, and is still a dict."""
    sync = make_request("m", [1], {"k": 2}, call="sync", multi=False,
                        reply_to="rq", correlation_id="c1", clock=5.0)
    assert type(sync) is Request and isinstance(sync, dict)
    assert sync == {"method": "m", "args": [1], "kwargs": {"k": 2},
                    "reply_to": "rq", "correlation_id": "c1"}
    assert (sync["method"], sync["args"], sync["kwargs"]) == ("m", [1], {"k": 2})
    # A cast has no reply address, and empty kwargs do not travel.
    cast = make_request("m", (1,), {}, call="async", multi=True)
    assert cast == {"method": "m", "args": [1]}


def test_reply_envelope_shape():
    """``ok`` is ``error is None``, which is what the proxy reads."""
    ok = make_reply("c1", result=42)
    assert type(ok) is Reply
    assert ok == {"correlation_id": "c1", "ok": True, "result": 42, "error": None,
                  "responder": ""}
    assert Proxy._unwrap("m", ok) == 42
    bad = make_reply("c1", error="ValueError: x")
    assert bad["ok"] is False and bad["error"] == "ValueError: x"
    with pytest.raises(RemoteInvocationError, match="ValueError: x"):
        Proxy._unwrap("m", bad)


def test_correlation_ids_unique():
    ids = {new_correlation_id() for _ in range(100)}
    assert len(ids) == 100


def test_naming_conventions():
    assert multi_exchange_name("syncservice") == "syncservice.multi"
    assert response_queue_name("abc") == "response.abc"


def test_arrival_monitor_rate():
    monitor = ArrivalMonitor()
    for t in range(11):
        monitor.record(float(t), t * 10)  # 10 arrivals/second
    assert monitor.rate == pytest.approx(10.0)


def test_arrival_monitor_empty():
    monitor = ArrivalMonitor()
    assert monitor.rate == 0.0
    assert monitor.interarrival_variance == 0.0
    monitor.record(0.0, 0)
    assert monitor.rate == 0.0  # one sample is not a rate
    monitor.record(1.0, 5)
    assert monitor.rate == pytest.approx(5.0)


def test_arrival_monitor_window_slides():
    monitor = ArrivalMonitor(window=5)
    # Old high-rate samples fall out of the window.
    for t in range(5):
        monitor.record(float(t), t * 100)
    for t in range(5, 15):
        monitor.record(float(t), 400 + (t - 4) * 10)
    assert monitor.rate == pytest.approx(10.0, rel=0.01)


def test_arrival_monitor_variance_poissonish():
    """For near-Poisson counts, estimated CV^2 = sigma_a2 * rate^2 ~ 1."""
    import random

    rng = random.Random(5)
    monitor = ArrivalMonitor(window=2000)
    cumulative = 0
    lam = 50.0
    for t in range(2000):
        # Poisson sample via normal approximation (lambda large).
        cumulative += max(0, round(rng.gauss(lam, lam**0.5)))
        monitor.record(float(t), cumulative)
    rate = monitor.rate
    ca2 = monitor.interarrival_variance * rate * rate
    assert rate == pytest.approx(lam, rel=0.05)
    assert ca2 == pytest.approx(1.0, rel=0.25)


class _ListArrivalMonitor:
    """The pre-deque reference implementation: a list re-sliced on every
    record.  Kept verbatim so the deque rewrite can be pinned bit-identical."""

    def __init__(self, window: int = 60):
        self.window = window
        self._samples = []

    def record(self, timestamp, cumulative_count):
        self._samples.append((timestamp, cumulative_count))
        self._samples = self._samples[-self.window:]

    @property
    def rate(self):
        if len(self._samples) < 2:
            return 0.0
        (t0, c0), (t1, c1) = self._samples[0], self._samples[-1]
        elapsed = t1 - t0
        if elapsed <= 0:
            return 0.0
        return max(0.0, (c1 - c0) / elapsed)

    @property
    def interarrival_variance(self):
        if len(self._samples) < 3:
            return 0.0
        counts = []
        widths = []
        for (t0, c0), (t1, c1) in zip(self._samples, self._samples[1:]):
            if t1 > t0:
                counts.append(c1 - c0)
                widths.append(t1 - t0)
        if not counts:
            return 0.0
        width = sum(widths) / len(widths)
        mean_count = sum(counts) / len(counts)
        if mean_count <= 0:
            return 0.0
        var_count = sum((c - mean_count) ** 2 for c in counts) / len(counts)
        mean_interarrival = width / mean_count
        return var_count * mean_interarrival**3 / width


def test_arrival_monitor_deque_bit_identical_to_list():
    """The O(1) deque window must reproduce the list-slice window exactly:
    same retained samples, bit-identical rate and variance at every step."""
    import random

    rng = random.Random(99)
    deque_monitor = ArrivalMonitor(window=7)
    list_monitor = _ListArrivalMonitor(window=7)
    cumulative = 0
    t = 0.0
    for step in range(500):
        # Irregular stamps (including repeats) and bursty counts.
        t += rng.choice([0.0, 0.25, 1.0, 3.0])
        cumulative += rng.randrange(0, 50)
        deque_monitor.record(t, cumulative)
        list_monitor.record(t, cumulative)
        assert list(deque_monitor._samples) == list_monitor._samples
        assert deque_monitor.rate == list_monitor.rate  # exact, not approx
        assert (
            deque_monitor.interarrival_variance
            == list_monitor.interarrival_variance
        )


def test_arrival_monitor_window_is_bounded():
    monitor = ArrivalMonitor(window=10)
    for t in range(1000):
        monitor.record(float(t), t)
    assert len(monitor._samples) == 10
    assert monitor._samples.maxlen == 10
