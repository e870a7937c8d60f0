"""The ``file_sync`` workload: a paper trace replayed between two devices.

Device ``a`` replays a ``TraceGenerator`` trace (ADD / UPDATE / REMOVE with
the paper's file-size distribution) one operation at a time through
``put_file`` / ``delete_file``; device ``b``, on the same workspace, confirms
each with ``wait_for_version``.  Then fresh devices ``start()`` one after
another and pull the whole workspace.  The data path does the work here
(chunk, SHA-1, gzip, transfer pool, store PUT/GET); the control path is a
small share of an operation.

The run is trace-bounded: the trace has ``SNAPSHOTS_PER_SECOND * seconds``
snapshots whatever the machine's speed, so that a seed always means the same
inputs and the byte counts repeat exactly.

The operation sequence and file sizes are those of one fixed structure seed
(:data:`STRUCTURE_SEED`); ``--seed`` draws every file's content and the
position of every edit.  The file-size distribution is heavy-tailed: across
structure seeds the size mix alone moves ``ops_per_s`` by a fifth, which is a
difference between inputs, not noise, and would have to be covered by the
regression bounds.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sync import SYNC_SERVICE_OID, Workspace
from repro.workload import OP_REMOVE, Trace, TraceGenerator, TraceReplayer

import measure
from stack import Stack, build_stack, peak_rss_mb, timed_setups

#: Seed of the trace's structure; the paper-figure benchmarks use the same.
STRUCTURE_SEED = 7
#: Trace length per second of ``--seconds``.  A snapshot is about 13 ops and
#: 1.4 MB, replayed in about 40 ms: the replay takes under half of
#: ``--seconds``, the rest of the run's slot goes to the joins and the checks.
SNAPSHOTS_PER_SECOND = 10
#: File-size multiplier, as in the paper-figure benchmarks of this repo.
SCALE = 0.25
#: Share of each file that gzip can shrink.  Mostly incompressible, as the
#: paper's storage-traffic figures imply and as this repo's Fig 7 benchmarks
#: assume; pinned so that traffic counts depend on the trace, not on a
#: per-file draw.
COMPRESSIBLE = 0.05
JOINS = 3
OP_TIMEOUT_S = 30.0
_WARM_SALT = 0x5EED


@dataclass
class Deployment:
    stack: Stack
    workspace: Workspace
    user: str
    a: object
    b: object

    def close(self) -> None:
        self.stack.stop_device(self.a)
        self.stack.stop_device(self.b)
        self.stack.close()


def _pair(stack: Stack, user: str, name: str, tag: str):
    stack.metadata.create_user(user)
    workspace = Workspace(workspace_id=name, owner=user)
    stack.metadata.create_workspace(workspace)
    a = stack.device(user, workspace, f"{tag}-a")
    b = stack.device(user, workspace, f"{tag}-b")
    a.start()
    b.start()
    return workspace, a, b


def deploy(seed: int, rec=None) -> Deployment:
    stack = build_stack("memory", rec)
    user = f"user-{seed}"
    workspace, a, b = _pair(stack, user, f"ws-{seed}", f"dev{seed}")
    return Deployment(stack, workspace, user, a, b)


def make_trace(seed: int, snapshots: int) -> Trace:
    """The fixed-structure trace whose contents and edits follow *seed*."""
    structure = TraceGenerator(
        snapshots=snapshots, scale=SCALE, seed=STRUCTURE_SEED
    ).generate()
    return Trace(ops=structure.ops, seed=seed)


def _no_span(*_args, **_kwargs):
    return contextlib.nullcontext()


@dataclass
class Replay:
    """What replaying a trace between two devices produced."""

    intervals: List[Tuple[float, float]] = field(default_factory=list)  # per op
    cpu_s: float = 0.0  # process CPU inside the intervals
    user_bytes: int = 0
    chunk_refs: int = 0  # chunk fingerprints proposed
    failed: int = 0  # ops that never reached ``b``
    expected: Dict[str, bytes] = field(default_factory=dict)  # final contents


def replay(trace, a, b, rec=None, budget_s=None) -> Replay:
    """Replay *trace* on ``a``, confirming each op on ``b``.

    Content is materialised before the clock starts for each op.
    *budget_s* stops a warm-up replay after that much wall time.
    """
    span = rec.span if rec is not None else _no_span
    replayer = TraceReplayer(trace, compressible_fraction=COMPRESSIBLE)
    out = Replay()
    began = time.perf_counter()
    for index, op in enumerate(trace):
        if budget_s is not None and time.perf_counter() - began >= budget_s:
            break
        content = replayer.materialize(op)
        with span("bench.op", op=f"op{index}"):
            cpu0 = time.process_time()
            started = time.perf_counter()
            if op.op == OP_REMOVE:
                with span("client.put_file", "delete"):
                    meta = a.delete_file(op.path)
                out.expected.pop(op.path, None)
            else:
                with span("client.put_file"):
                    meta = a.put_file(op.path, content)
                out.expected[op.path] = content
                out.user_bytes += len(content)
                out.chunk_refs += len(meta.chunks)
            with span("bench.wait"):
                applied = b.wait_for_version(meta.item_id, meta.version, OP_TIMEOUT_S)
            ended = time.perf_counter()
            out.cpu_s += time.process_time() - cpu0
        out.intervals.append((started, ended))
        if applied is None:
            out.failed += 1
    return out


def _same_files(device, expected: Dict[str, bytes]) -> bool:
    fs = device.fs
    return fs.list_paths() == sorted(expected) and all(
        fs.read(path) == content for path, content in expected.items()
    )


def run(seed: int, seconds: float, warmup: float, rec=None) -> dict:
    """One run of ``file_sync`` in this process; returns the raw result."""
    dep = deploy(seed, rec)
    stack = dep.stack
    try:
        # Warm-up: the same kind of load from another seed, on a workspace,
        # user (so container and dedup index) and device pair of its own.
        _ws, wa, wb = _pair(stack, f"warm-{seed}", f"wu-{seed}", f"warm{seed}")
        replay(make_trace(seed ^ _WARM_SALT, 160), wa, wb, budget_s=warmup)
        stack.stop_device(wa)
        stack.stop_device(wb)
        del wa, wb
        gc.collect()

        trace = make_trace(seed, max(1, int(SNAPSHOTS_PER_SECOND * seconds)))
        mom = stack.raw_mom
        store = stack.storage
        service = stack.service
        stats0 = mom.stats.snapshot()
        store0 = (store.bytes_in, store.bytes_out, store.put_count, store.get_count)
        commits0, conflicts0 = service.commit_count, service.conflict_count
        if rec is not None:
            rec.spans.clear()  # keep the measured phase only

        played = replay(trace, dep.a, dep.b, rec)
        expected, intervals = played.expected, played.intervals

        stats1 = mom.stats.snapshot()
        bytes_in = store.bytes_in - store0[0]
        commits = service.commit_count - commits0
        conflicts = service.conflict_count - conflicts0
        uploads = dep.a.stats.chunk_uploads
        retries = dep.a.stats.transfer_retries + dep.b.stats.transfer_retries

        problems: List[str] = []
        joins: List[float] = []
        for number in range(JOINS):
            joiner = stack.device(dep.user, dep.workspace, f"dev{seed}-j{number}")
            started = time.perf_counter()
            joiner.start()
            joins.append(time.perf_counter() - started)
            if not _same_files(joiner, expected):
                problems.append(f"joiner {number} does not hold the files of a")
            retries += joiner.stats.transfer_retries
            stack.stop_device(joiner)
            del joiner
            # A stopped client is a reference cycle; free its copy of the
            # workspace now, so the next joiner reuses the memory.
            gc.collect()

        ops = len(intervals)
        if played.failed:
            problems.append(f"{played.failed} operations never reached device b")
        if commits != ops:
            problems.append(f"sync.commits {commits} != {ops} operations attempted")
        if conflicts:
            problems.append(f"sync.conflicts {conflicts} != 0")
        if not _same_files(dep.a, expected):
            problems.append("device a does not hold the generated files")
        if not _same_files(dep.b, expected):
            problems.append("device b does not hold the files of a")
        counts = {
            "mom.published": (stats1["publishes"] - stats0["publishes"], "count"),
            "mom.redelivered": (mom.queue_stats(SYNC_SERVICE_OID)["redelivered"], "count"),
            "mom.depth_max": (mom.declare_queue(SYNC_SERVICE_OID).depth_high_water, "count"),
            "sync.commits": (commits, "count"),
            "sync.conflicts": (conflicts, "count"),
            "client.dedup_ratio": (1.0 - uploads / played.chunk_refs if played.chunk_refs else 0.0, "ratio"),
            "client.transfer_retries": (retries, "count"),
            "storage.put_count": (store.put_count - store0[2], "count"),
            "storage.get_count": (store.get_count - store0[3], "count"),
            "storage.bytes_in": (bytes_in, "B"),
            "storage.bytes_out": (store.bytes_out - store0[1], "B"),
        }
        apply_owner = dep.b.device_id
    finally:
        dep.close()
    del expected, played.expected
    gc.collect()
    setup_s = timed_setups(lambda: deploy(seed))

    timed = sum(end - start for start, end in intervals)
    latencies = [end - start for start, end in intervals]
    wire = stats1["bytes_published"] - stats0["bytes_published"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / timed, "1/s"),
        "op_p50_ms": (measure.percentile(latencies, 0.50) * 1e3, "ms"),
        "op_p95_ms": (measure.percentile(latencies, 0.95) * 1e3, "ms"),
        "cpu_us_per_op": (played.cpu_s / ops * 1e6, "us"),
        "wire_bytes_per_op": (wire / ops, "B"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "payload_mb_per_s": (played.user_bytes / timed / 1e6, "MB/s"),
        "traffic_overhead_ratio": ((bytes_in + wire) / played.user_bytes, "ratio"),
        "join_s": (measure.percentile(joins, 0.5), "s"),
        "bench.op_p99_ms": (measure.percentile(latencies, 0.99) * 1e3, "ms"),
        "bench.op_samples": (ops, "count"),
        "bench.gen_late_p95_ms": (0.0, "ms"),
        **counts,
    }
    return {
        "metrics": metrics,
        "attempted": ops,
        "failed": played.failed,
        "problems": problems,
        "samples": (
            {f"op{i}": interval for i, interval in enumerate(intervals)}
            if rec is not None else {}
        ),
        "items": ops,
        "apply_owner": apply_owner,
    }
