"""Ablation — parallel chunk transfer pool size vs sync time.

The Fig 7(f) experiment reruns with the client's transfer pool width
swept over 1/2/4/8 workers.  A pool of 1 is the serial data plane the
seed shipped with; wider pools overlap the simulated wire time of
independent chunk PUT/GETs.  Expected shape: single-chunk files see no
benefit (nothing to overlap), multi-chunk files approach ``min(pool,
chunks)`` speedup until the fixed control-plane cost floors the curve.

The byte counters must not move: parallelism changes *when* chunks fly,
never *what* flies.
"""

from __future__ import annotations

import random
import time

from conftest import run_once

from repro.bench import render_series, render_table
from repro.client import StackSyncClient
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker
from repro.storage import LAN_PROFILE, LatencyModel, SwiftLikeStore
from repro.sync import SYNC_SERVICE_OID, SyncService, Workspace
from repro.workload import generate_content

#: Slower-than-LAN wire so transfer time (the thing the pool overlaps)
#: dominates the fixed CPU cost of chunking + compression.
TIME_SCALE = 2.0
POOL_SIZES = [1, 2, 4, 8]
#: 512 KB default chunks: 1, 4 and 8 chunks respectively.
SIZES_KB = [512, 2048, 4096]
MULTICHUNK_KB = [kb for kb in SIZES_KB if kb >= 2048]


def run_pool(pool_size: int):
    """One fresh single-user deployment; sync every size through it."""
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    storage = SwiftLikeStore(node_count=4, replicas=2)
    storage.latency = LatencyModel(
        profile=LAN_PROFILE.scaled(TIME_SCALE), sleep=True, rng=random.Random(4)
    )
    metadata.create_user("bench-user")
    workspace = Workspace(workspace_id="ws-ablate", owner="bench-user")
    metadata.create_workspace(workspace)
    server = Broker(mom)
    service = SyncService(metadata, server)
    server.bind(SYNC_SERVICE_OID, service)

    writer = StackSyncClient(
        "bench-user", workspace, mom, storage,
        device_id="w", transfer_pool_size=pool_size,
    )
    reader = StackSyncClient(
        "bench-user", workspace, mom, storage,
        device_id="r", transfer_pool_size=pool_size,
    )
    writer.start()
    reader.start()

    times = {}
    for size_kb in SIZES_KB:
        # Identical paths across pool sizes: content (and therefore every
        # byte counter) is a pure function of (path, size, seed).
        path = f"s{size_kb}k.dat"
        content = generate_content(path, size_kb * 1024, seed=11)
        t0 = time.perf_counter()
        meta = writer.put_file(path, content)
        assert reader.wait_for_version(meta.item_id, meta.version, timeout=120)
        times[size_kb] = time.perf_counter() - t0

    counters = (writer.stats.storage_up, reader.stats.storage_down)
    writer.stop()
    reader.stop()
    server.close()
    mom.close()
    return times, counters


def run_experiment():
    return {pool: run_pool(pool) for pool in POOL_SIZES}


def test_ablation_parallel_transfer_pool_size(benchmark):
    results = run_once(benchmark, run_experiment)

    rows = []
    for pool in POOL_SIZES:
        times, (up, down) = results[pool]
        rows.append(
            [pool]
            + [f"{times[kb]:.3f}" for kb in SIZES_KB]
            + [f"{sum(times.values()):.3f}", up, down]
        )
    print(f"\nAblation: transfer pool size vs sync time (LAN x{TIME_SCALE})")
    print(render_table(
        ["pool"] + [f"{kb} KB s" for kb in SIZES_KB] + ["total s", "up B", "down B"],
        rows,
    ))
    print(render_series(
        "total sync time (s) vs pool size",
        [(pool, sum(results[pool][0].values())) for pool in POOL_SIZES],
        x_label="pool size",
    ))

    # Parallelism must be invisible in the byte counters: every pool size
    # moves exactly the same chunks.
    assert len({counters for _, counters in results.values()}) == 1

    # Multi-chunk files (>= 4 chunks): 4 workers at least halve the
    # serial sync time — the headline data-plane win.
    serial = sum(results[1][0][kb] for kb in MULTICHUNK_KB)
    pool4 = sum(results[4][0][kb] for kb in MULTICHUNK_KB)
    assert pool4 * 2.0 <= serial, f"pool=4 speedup {serial / pool4:.2f}x < 2x"

    # Wider never loses overall: pool 8 beats serial across the sweep.
    assert sum(results[8][0].values()) < sum(results[1][0].values())

    # Single-chunk files have nothing to overlap: the pool must not cost
    # more than the round-trip noise on them.
    assert results[4][0][512] < results[1][0][512] * 2.0
