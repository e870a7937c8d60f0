"""Ablation — metadata-plane shards vs aggregate commit throughput.

The seed's commit path funnels every workspace through one request
queue and one back-end; this experiment sweeps the number of metadata
shards over 1/2/4 with *one SyncService consumer per shard queue* in
every configuration, so the only variable is the partitioning itself.
A fixed per-commit service time (the paper's metadata transaction,
modelled with ``service_delay``) makes the back-end the bottleneck;
``time.sleep`` releases the GIL, so independent shards really do commit
concurrently.

Expected shape: aggregate throughput approaches ``shards`` bounded by
the most-loaded shard (rendezvous hashing is balanced but not perfect).
Partitioning must be invisible in the data: every per-workspace version
history is byte-identical across shard counts.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.bench import render_series, render_table
from repro.metadata import ShardedMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker, shard_oid
from repro.sync import SYNC_SERVICE_OID, SyncService, Workspace
from repro.sync.interface import SyncServiceApi
from repro.sync.models import ItemMetadata

SHARD_COUNTS = [1, 2, 4]
BACKENDS = ["memory", "sqlite"]
WORKSPACES = 32
#: Two files, two versions each: 4 commits per workspace, 128 total.
FILES = ["a.txt", "b.txt"]
VERSIONS = 2
#: Modelled metadata-transaction time per commit (seconds).  Large
#: enough to dominate dispatch overhead, small enough that the serial
#: baseline stays around half a second.
COMMIT_DELAY_S = 0.004


def build_backend(kind: str, shards: int) -> ShardedMetadataBackend:
    if kind == "memory":
        return ShardedMetadataBackend.memory(shards)
    return ShardedMetadataBackend.sqlite(":memory:", shards)


def run_shards(kind: str, shards: int):
    """One fresh deployment: N shard queues, N consumers, one DAO composite."""
    mom = MessageBroker()
    metadata = build_backend(kind, shards)
    metadata.create_user("bench-user")
    workspace_ids = [f"ws-{i:02d}" for i in range(WORKSPACES)]
    for workspace_id in workspace_ids:
        metadata.create_workspace(
            Workspace(workspace_id=workspace_id, owner="bench-user")
        )

    server = Broker(mom)
    services = []
    for shard in range(shards):
        service = SyncService(
            metadata, server, service_delay=lambda: COMMIT_DELAY_S
        )
        services.append(service)
        server.bind(shard_oid(SYNC_SERVICE_OID, shard), service)
    client = Broker(mom)
    proxy = client.lookup_sharded(SYNC_SERVICE_OID, SyncServiceApi, shards)

    total = WORKSPACES * len(FILES) * VERSIONS
    t0 = time.perf_counter()
    # Version order per workspace is preserved end to end: a workspace
    # maps to exactly one FIFO queue with exactly one consumer.
    for version in range(1, VERSIONS + 1):
        for workspace_id in workspace_ids:
            for filename in FILES:
                item = ItemMetadata(
                    item_id=f"{workspace_id}:{filename}",
                    workspace_id=workspace_id,
                    version=version,
                    filename=filename,
                    device_id="bench",
                )
                proxy.commit_request(workspace_id, "bench", [item])
    deadline = time.monotonic() + 60.0
    while sum(s.commit_count for s in services) < total:
        if time.monotonic() > deadline:
            raise AssertionError("commit stream did not drain")
        time.sleep(0.002)
    elapsed = time.perf_counter() - t0

    conflicts = sum(s.conflict_count for s in services)
    histories = {
        workspace_id: repr(
            [
                metadata.item_history(f"{workspace_id}:{filename}")
                for filename in FILES
            ]
        )
        for workspace_id in workspace_ids
    }
    client.close()
    server.close()
    mom.close()
    metadata.close()
    return {
        "elapsed": elapsed,
        "throughput": total / elapsed,
        "conflicts": conflicts,
        "histories": histories,
    }


def run_experiment():
    return {
        kind: {shards: run_shards(kind, shards) for shards in SHARD_COUNTS}
        for kind in BACKENDS
    }


def test_ablation_metadata_shards(benchmark):
    results = run_once(benchmark, run_experiment)

    rows = []
    for kind in BACKENDS:
        base = results[kind][1]["throughput"]
        for shards in SHARD_COUNTS:
            run = results[kind][shards]
            rows.append(
                [
                    kind,
                    shards,
                    f"{run['elapsed']:.3f}",
                    f"{run['throughput']:.0f}",
                    f"{run['throughput'] / base:.2f}x",
                ]
            )
    print("\nAblation: metadata shards vs aggregate commit throughput")
    print(
        render_table(
            ["backend", "shards", "wall s", "commits/s", "speedup"], rows
        )
    )
    print(
        render_series(
            "commit throughput (memory backend) vs shards",
            [(s, results["memory"][s]["throughput"]) for s in SHARD_COUNTS],
            x_label="shards",
        )
    )

    for kind in BACKENDS:
        # The workload is conflict-free by construction; a non-zero count
        # would mean routing scrambled the per-workspace version order.
        for shards in SHARD_COUNTS:
            assert results[kind][shards]["conflicts"] == 0

        # Partitioning changes *where* a workspace commits, never *what*
        # its history contains: byte-identical across every shard count.
        baseline = results[kind][1]["histories"]
        for shards in SHARD_COUNTS[1:]:
            assert results[kind][shards]["histories"] == baseline

    # The headline scaling claim: four shards at least double the
    # single-shard aggregate commit throughput.
    serial = results["memory"][1]["throughput"]
    four = results["memory"][4]["throughput"]
    assert four >= 2.0 * serial, f"4-shard speedup {four / serial:.2f}x < 2x"

    # sqlite engines are independent files/connections: they must scale
    # too, even if the floor is higher than the in-memory DAO's.
    assert (
        results["sqlite"][4]["throughput"]
        > results["sqlite"][1]["throughput"]
    )
