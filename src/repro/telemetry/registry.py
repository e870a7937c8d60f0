"""The unified metrics registry: one place for every meter in the stack.

Before this module, operational counters were scattered per component:
``ObjectInfo`` on each skeleton, ``ClientTrafficStats`` on each client,
``BrokerStats`` on the MOM broker, ``CallStats`` on each proxy.  The
:class:`MetricsRegistry` absorbs them behind labeled series without
touching their hot paths.  A component registers a *source* — a
callback evaluated only when someone snapshots the registry — holding
the owner through a weak reference, so a dead client/broker/supervisor
and every series it reported drop out of the scrape.  A source is the
registry's only mechanism: it stores no values of its own.

A source is also how a component reports its health: a read that
returns an ``up`` key (1 or 0) makes the component one entry of
:meth:`MetricsRegistry.health`, which backs the ops endpoint's
``/health``.  A read that raises reports ``up`` 0 with the error rather
than failing the scrape.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class _Source:
    """A lazily-scraped metric producer tied to its owner's lifetime.

    Its labels are rendered by its first read: most are never scraped.
    """

    def __init__(self, name: str, owner: Any, read: Callable[[Any], Dict[str, float]], labels: Dict[str, Any]):
        self.name = name
        self.ref = weakref.ref(owner)
        self.read = read
        self.labels = labels
        self._rendered: Optional[str] = None

    def rendered_labels(self) -> str:
        if self._rendered is None:
            self._rendered = _render_labels(_labels_key(self.labels))
        return self._rendered


class MetricsRegistry:
    """Process-wide store of scrape-time sources."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: Dict[int, _Source] = {}
        self._source_ids = itertools.count(1)

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
        disappears from future snapshots.  A read that reports ``up``
        makes the owner a component of :meth:`health`.  Returns a token
        usable with :meth:`unregister_source`.
        """
        source = _Source(name, owner, read, labels)
        with self._lock:
            token = next(self._source_ids)
            self._sources[token] = source
        return token

    def unregister_source(self, token: int) -> None:
        with self._lock:
            self._sources.pop(token, None)

    def source_count(self) -> int:
        """Number of registered sources, including not-yet-pruned dead ones."""
        with self._lock:
            return len(self._sources)

    def _read_sources(self) -> List[Tuple[_Source, Dict[str, float], Optional[str]]]:
        """Read every live source once: ``(source, values, error)``.

        A read that raises gives ``{"up": 0.0}`` and its error text — a
        failing component is down, it does not fail the scrape.  Sources
        whose owners were garbage-collected are pruned.
        """
        with self._lock:
            sources = list(self._sources.items())
        out: List[Tuple[_Source, Dict[str, float], Optional[str]]] = []
        dead: List[int] = []
        for token, source in sources:
            owner = source.ref()
            if owner is None:
                dead.append(token)
                continue
            try:
                out.append((source, source.read(owner), None))
            except Exception as exc:  # noqa: BLE001 - reported as down
                out.append((source, {"up": 0.0}, f"{type(exc).__name__}: {exc}"))
        if dead:
            with self._lock:
                for token in dead:
                    self._sources.pop(token, None)
        return out

    # -- output --------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flatten every series into ``name{label="v"} -> value``."""
        result: Dict[str, float] = {}
        for source, values, _error in self._read_sources():
            rendered = source.rendered_labels()
            for stat, value in values.items():
                result[f"{source.name}_{stat}{rendered}"] = value
        return result

    def health(self) -> List[Dict[str, Any]]:
        """One ``{"component", "ok", "detail"}`` per source reporting ``up``.

        The component is the source's name and labels; the detail is the
        rest of its read, plus the error of a read that raised.
        """
        components: List[Dict[str, Any]] = []
        for source, values, error in self._read_sources():
            if "up" not in values:
                continue
            detail: Dict[str, Any] = {k: v for k, v in values.items() if k != "up"}
            if error is not None:
                detail["error"] = error
            components.append({
                "component": source.name + source.rendered_labels(),
                "ok": bool(values["up"]),
                "detail": detail,
            })
        return components

    def render_prometheus(self) -> str:
        """Prometheus text-exposition-style snapshot (one line per series)."""
        lines = [
            f"{series} {value}"
            for series, value in sorted(self.snapshot().items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Drop every source (tests / fresh experiments)."""
        with self._lock:
            self._sources.clear()


#: The process-wide registry components wire themselves into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
