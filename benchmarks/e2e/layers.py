"""Per-layer metrics and the layer-budget table, from a traced run's spans."""

from __future__ import annotations

from typing import Dict, List, Tuple

import measure
from spans import (
    QUEUE_WAIT,
    RESIDUAL,
    Span,
    Totals,
    layer_budget,
    render_budget,
    totals_by_name,
)

_NONE = Totals(0, 0.0, 0.0, 0)


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(
    spans: List[Span],
    window: Tuple[float, float],
    ops: int,
    items: int,
    apply_owner: str = "",
) -> Dict[str, Tuple[float, str]]:
    """Span-derived per-layer metrics of one traced run.

    Per-operation figures use the spans that started inside *window* (the
    measured phase); the join phase after it feeds ``metadata.state``.
    A layer the workload never reaches reports 0.
    """
    lo, hi = window
    measured = [s for s in spans if lo <= s.start <= hi]
    totals = totals_by_name(measured)
    joined = [s for s in spans if s.start > hi and s.name == "metadata.state"]

    def get(name: str) -> Totals:
        return totals.get(name, _NONE)

    def us_per_op(seconds: float) -> float:
        return _ratio(seconds, ops) * 1e6

    def mb_per_s(total: Totals) -> float:
        return _ratio(total.n, total.duration) / 1e6

    def us_per_mb(total: Totals) -> float:
        return _ratio(total.duration * 1e6, total.n / 1e6)

    waits = [s.duration for s in measured if s.name == QUEUE_WAIT]
    publish, ack = get("mom.publish"), get("mom.ack")
    deliveries = get("objectmq.skeleton"), get("client.apply")
    request = get("serialization.encode:commit_request")
    notify = get("serialization.encode:notify_commit")
    applied = get(f"client.apply:{apply_owner}") if apply_owner else _NONE
    store = get("metadata.store")
    return {
        "serialization.encode_us_per_op": (us_per_op(get("serialization.encode").duration), "us"),
        "serialization.decode_us_per_op": (us_per_op(get("serialization.decode").duration), "us"),
        "serialization.request_bytes": (_ratio(request.n, request.calls), "B"),
        "serialization.notify_bytes": (_ratio(notify.n, notify.calls), "B"),
        "objectmq.proxy_self_us_per_op": (us_per_op(get("objectmq.proxy").self_time), "us"),
        "objectmq.skeleton_self_us_per_op": (us_per_op(get("objectmq.skeleton").self_time), "us"),
        "objectmq.msgs_per_publish": (_ratio(publish.n, publish.calls), "count"),
        "mom.publish_us_per_msg": (_ratio(publish.duration, publish.n) * 1e6, "us"),
        "mom.ack_us_per_msg": (_ratio(ack.duration, ack.n) * 1e6, "us"),
        "mom.queue_wait_us_p50": (measure.percentile(waits, 0.50) * 1e6 if waits else 0.0, "us"),
        "mom.queue_wait_us_p95": (measure.percentile(waits, 0.95) * 1e6 if waits else 0.0, "us"),
        "mom.msgs_per_delivery": (
            _ratio(sum(d.n for d in deliveries), sum(d.calls for d in deliveries)), "count"),
        "sync.commit_self_us_per_op": (us_per_op(get("sync.commit_request").self_time), "us"),
        "sync.notify_us_per_op": (us_per_op(get("objectmq.proxy:notify_commit").duration), "us"),
        "metadata.store_us_per_op": (us_per_op(store.duration), "us"),
        "metadata.store_us_per_item": (_ratio(store.duration, items) * 1e6, "us"),
        "metadata.exists_us_per_op": (us_per_op(get("metadata.exists").duration), "us"),
        "metadata.state_us_per_item": (
            _ratio(sum(s.duration for s in joined), sum(s.n for s in joined)) * 1e6, "us"),
        "client.chunk_mb_per_s": (mb_per_s(get("client.chunk")), "MB/s"),
        "client.compress_mb_per_s": (mb_per_s(get("client.compress")), "MB/s"),
        "client.decompress_mb_per_s": (mb_per_s(get("client.decompress")), "MB/s"),
        "client.index_self_us_per_op": (us_per_op(get("client.index").self_time), "us"),
        "client.upload_self_us_per_op": (us_per_op(get("client.upload").self_time), "us"),
        "client.fetch_self_us_per_op": (us_per_op(get("client.fetch").self_time), "us"),
        "client.commit_self_us_per_op": (us_per_op(get("client.commit").self_time), "us"),
        "client.apply_us_per_op": (us_per_op(applied.duration), "us"),
        "storage.put_us_per_mb": (us_per_mb(get("storage.put")), "us/MB"),
        "storage.get_us_per_mb": (us_per_mb(get("storage.get")), "us/MB"),
    }


def budget_report(
    spans: List[Span], samples: Dict[str, Tuple[float, float]], p50_ms: float
) -> Tuple[str, float]:
    """The layer-budget table and ``bench.residual_share``."""
    rows, latency, count = layer_budget(spans, samples)
    share = _ratio(rows.get(RESIDUAL, 0.0), latency)
    return render_budget(rows, latency, count, p50_ms), share
