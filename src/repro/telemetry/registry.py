"""The unified metrics registry: one place for every meter in the stack.

Before this module, operational counters were scattered per component:
``ObjectInfo`` on each skeleton, ``ClientTrafficStats`` on each client,
``BrokerStats`` on the MOM broker, ``TransferStats`` on each chunk pool,
``CallStats`` on each proxy.  The :class:`MetricsRegistry` absorbs them
behind labeled series without touching their hot paths: components
register a *source* — a callback evaluated only when someone snapshots
the registry — holding the owner through a weak reference so a dead
client/broker/pool silently drops out of the scrape.

Direct instruments (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
are also available for code that wants to record into the registry
itself; histograms reuse the bounded-reservoir + shared-percentile scheme
of ``CallStats``.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.telemetry.stats import percentile

Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing labeled counter (thread-safe)."""

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A labeled point-in-time value (thread-safe)."""

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bounded-reservoir histogram: exact count/sum/max, recent percentiles.

    The same scheme as ``CallStats``: aggregates are exact over every
    observation ever made, percentile queries run over the most recent
    :data:`RESERVOIR_SIZE` samples, so memory stays O(1).
    """

    RESERVOIR_SIZE = 10_000

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._recent: Deque[float] = deque(maxlen=self.RESERVOIR_SIZE)

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value > self.max:
                self.max = value
            self._recent.append(value)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        with self._lock:
            recent = list(self._recent)
        return percentile(recent, fraction)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            recent = list(self._recent)
            count, total, maximum = self.count, self.total, self.max
        return {
            "count": count,
            "sum": total,
            "max": maximum,
            "mean": total / count if count else 0.0,
            "p50": percentile(recent, 0.50),
            "p95": percentile(recent, 0.95),
            "p99": percentile(recent, 0.99),
        }


class _Source:
    """A lazily-scraped metric producer tied to its owner's lifetime."""

    def __init__(self, name: str, owner: Any, read: Callable[[Any], Dict[str, float]], labels: Labels):
        self.name = name
        self.ref = weakref.ref(owner)
        self.read = read
        self.labels = labels


class MetricsRegistry:
    """Process-wide store of instruments and scrape-time sources."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}
        self._sources: Dict[int, _Source] = {}
        self._source_ids = itertools.count(1)

    # -- direct instruments (get-or-create) ----------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(name, key[1])
                self._counters[key] = instrument
            return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(name, key[1])
                self._gauges[key] = instrument
            return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(name, key[1])
                self._histograms[key] = instrument
            return instrument

    # -- scrape-time sources -------------------------------------------------

    def register_source(
        self,
        name: str,
        owner: Any,
        read: Callable[[Any], Dict[str, float]],
        **labels: Any,
    ) -> int:
        """Register ``read(owner) -> {metric: value}`` scraped lazily.

        The owner is held weakly: when it is garbage-collected the source
        disappears from future snapshots.  Returns a token usable with
        :meth:`unregister_source`.
        """
        source = _Source(name, owner, read, _labels_key(labels))
        with self._lock:
            token = next(self._source_ids)
            self._sources[token] = source
        return token

    def unregister_source(self, token: int) -> None:
        with self._lock:
            self._sources.pop(token, None)

    def prune_dead_sources(self) -> int:
        """Drop sources whose owners were garbage-collected.

        :meth:`snapshot` already prunes as a side effect of scraping; this
        is the explicit form for callers that want to reclaim the slots
        (and verify there are no tombstones) without paying for a scrape.
        Returns the number of sources removed.
        """
        with self._lock:
            dead = [
                token
                for token, source in self._sources.items()
                if source.ref() is None
            ]
            for token in dead:
                self._sources.pop(token)
        return len(dead)

    def source_count(self) -> int:
        """Number of registered sources, including not-yet-pruned dead ones."""
        with self._lock:
            return len(self._sources)

    # -- output --------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flatten every series into ``name{label="v"} -> value``."""
        result: Dict[str, float] = {}
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            sources = list(self._sources.items())
        for counter in counters:
            result[counter.name + _render_labels(counter.labels)] = counter.value
        for gauge in gauges:
            result[gauge.name + _render_labels(gauge.labels)] = gauge.value
        for histogram in histograms:
            rendered = _render_labels(histogram.labels)
            for stat, value in histogram.summary().items():
                result[f"{histogram.name}_{stat}{rendered}"] = value
        dead: List[int] = []
        for token, source in sources:
            owner = source.ref()
            if owner is None:
                dead.append(token)
                continue
            rendered = _render_labels(source.labels)
            for stat, value in source.read(owner).items():
                result[f"{source.name}_{stat}{rendered}"] = value
        if dead:
            with self._lock:
                for token in dead:
                    self._sources.pop(token, None)
        return result

    def render_prometheus(self) -> str:
        """Prometheus text-exposition-style snapshot (one line per series)."""
        lines = [
            f"{series} {value}"
            for series, value in sorted(self.snapshot().items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Drop every instrument and source (tests / fresh experiments)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._sources.clear()


#: The process-wide registry components wire themselves into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
