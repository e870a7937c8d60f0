"""Span self time, operation resolution and the per-operation budget."""

import threading

import pytest

from spans import (
    QUEUE_WAIT,
    RESIDUAL,
    Recorder,
    Span,
    children_of,
    layer_budget,
    op_budget,
    resolve_ops,
    self_time,
    totals_by_name,
    union_length,
)


def span(id, parent, name, start, end, op=None, thread=1, n=0, detail=""):
    return Span(id, parent, name, detail, op, n, thread, start, end)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_children_across_threads():
    # An upload waits 10 ms on three pool threads whose PUTs overlap:
    # the children sum to 15 ms but cover only 8 ms of the parent.
    parent = span(1, None, "client.upload", 0.000, 0.010)
    kids = [
        span(2, 1, "storage.put", 0.001, 0.006, thread=2),
        span(3, 1, "storage.put", 0.002, 0.007, thread=3),
        span(4, 1, "storage.put", 0.004, 0.009, thread=4),
    ]
    assert sum(k.duration for k in kids) == pytest.approx(0.015)
    assert self_time(parent, kids) == pytest.approx(0.002)


def test_self_time_clips_children_that_outlive_the_parent():
    parent = span(1, None, "objectmq.proxy", 0.0, 1.0)
    late_child = span(2, 1, "mom.queue_wait", 0.9, 5.0, thread=2)
    outside = span(3, 1, "sync.commit_request", 2.0, 3.0, thread=2)
    assert self_time(parent, [late_child, outside]) == pytest.approx(0.9)


def test_totals_by_name_reports_duration_self_time_and_counts():
    spans = [
        span(1, None, "sync.commit_request", 0.0, 1.0),
        span(2, 1, "metadata.store", 0.2, 0.6, n=8),
        span(3, None, "sync.commit_request", 2.0, 2.5),
    ]
    totals = totals_by_name(spans)
    assert totals["sync.commit_request"].calls == 2
    assert totals["sync.commit_request"].duration == pytest.approx(1.5)
    assert totals["sync.commit_request"].self_time == pytest.approx(1.1)
    assert totals["metadata.store"].n == 8


def test_totals_by_name_also_keys_by_detail():
    spans = [
        span(1, None, "objectmq.proxy", 0.0, 1.0, detail="commit_request"),
        span(2, None, "objectmq.proxy", 2.0, 4.0, detail="notify_commit"),
    ]
    totals = totals_by_name(spans)
    assert totals["objectmq.proxy"].duration == pytest.approx(3.0)
    assert totals["objectmq.proxy:notify_commit"].duration == pytest.approx(2.0)


def test_recorder_nests_by_thread_and_links_across_threads():
    rec = Recorder()
    with rec.span("client.upload") as upload:
        rec.links["fp1"] = upload.id

        def pool_worker():
            with rec.span("storage.put", parent=rec.links.get("fp1")):
                with rec.span("inner"):
                    pass

        worker = threading.Thread(target=pool_worker)
        worker.start()
        worker.join(5)
        with rec.span("client.local"):
            pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["storage.put"].parent == by_name["client.upload"].id
    assert by_name["inner"].parent == by_name["storage.put"].id
    assert by_name["client.local"].parent == by_name["client.upload"].id
    assert by_name["client.upload"].parent is None
    assert by_name["storage.put"].thread != by_name["client.upload"].thread
    assert len(children_of(rec.spans)[by_name["client.upload"].id]) == 2


def test_resolve_ops_inherits_and_aliases_the_clients_request_id():
    spans = [
        span(1, None, "bench.op", 0, 10, op="op7"),
        span(2, 1, "client.put_file", 0, 4),
        span(3, 2, "objectmq.proxy", 3, 4, op="uuid-1"),  # client's own id
        span(4, None, "objectmq.skeleton", 5, 8, thread=2),
        span(5, 4, "sync.commit_request", 5, 7, op="uuid-1", thread=2),
        span(6, 5, "metadata.store", 6, 7, thread=2),
    ]
    ops = resolve_ops(spans)
    assert ops[2] == "op7"
    assert ops[3] == "op7"  # the inner name is an alias of the outer operation
    assert ops[4] is None  # a delivery callback belongs to no single operation
    assert ops[5] == "op7" and ops[6] == "op7"


def test_op_budget_accounts_for_every_instant_of_the_latency():
    # cast 0-1 ms (publish inside), queue wait to 3 ms, a batch delivery
    # 3-9 ms that first serves another op (3-5 ms), then this one (5-8 ms,
    # store inside), listener on a third thread 9.5-10 ms.
    own = [
        span(1, None, "objectmq.proxy", 0.000, 0.001, op="x"),
        span(2, 1, "mom.publish", 0.0004, 0.0009, op="x"),
        span(3, 2, QUEUE_WAIT, 0.0009, 0.003, op="x"),
        span(5, 4, "sync.commit_request", 0.005, 0.008, op="x", thread=2),
        span(6, 5, "metadata.store", 0.006, 0.007, op="x", thread=2),
        span(9, None, "bench.listener", 0.0095, 0.010, op="x", thread=3),
    ]
    holder = span(4, None, "objectmq.skeleton", 0.003, 0.009, thread=2)
    other = span(7, 4, "sync.commit_request", 0.0032, 0.005, op="y", thread=2)
    budget = op_budget((0.0, 0.010), own, [(holder, [other])])
    assert sum(budget.values()) == pytest.approx(0.010)
    assert budget["objectmq.proxy"] == pytest.approx(0.0005)
    assert budget["mom.publish"] == pytest.approx(0.0005)
    # 1-3 ms stamped wait (0.9-1 ms is still the proxy) + 3.2-5 ms behind the batch-mate
    assert budget[QUEUE_WAIT] == pytest.approx(0.0020 + 0.0018)
    assert budget["sync.commit_request"] == pytest.approx(0.002)
    assert budget["metadata.store"] == pytest.approx(0.001)
    # callback busy with nothing recorded: 3-3.2 ms and 8-9 ms
    assert budget["objectmq.skeleton"] == pytest.approx(0.0012)
    assert budget[RESIDUAL] == pytest.approx(0.0005)  # 9-9.5 ms: a thread wake-up
    assert budget["bench.listener"] == pytest.approx(0.0005)


def test_layer_budget_rows_sum_to_the_latency_of_the_median_band():
    spans, samples = [], {}
    next_id = iter(range(1, 10_000))
    for index in range(100):
        op = f"op{index}"
        start = index * 1.0
        latency = 0.010 + index * 0.0001  # 10.0 .. 19.9 ms
        work_end = start + latency * 0.6
        spans.append(span(next(next_id), None, "objectmq.proxy", start, work_end, op=op))
        samples[op] = (start, start + latency)
    rows, latency, count = layer_budget(spans, samples)
    assert count == 10  # the tenth of the operations around the median
    assert latency == pytest.approx(0.01495)
    assert sum(rows.values()) == pytest.approx(latency)
    assert rows["objectmq.proxy"] == pytest.approx(latency * 0.6)
    assert rows[RESIDUAL] == pytest.approx(latency * 0.4)
