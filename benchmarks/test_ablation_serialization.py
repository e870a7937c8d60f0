"""Ablation — RPC transport codecs (§3.4: Kryo / Java serialization / JSON).

Measures wire size and encode+decode throughput of the three codecs on a
realistic commitRequest envelope (metadata for a multi-chunk file).
Expected: JSON is the largest and binary beats it; pickle, which writes a
registered DTO as class code + positional values, is the smallest and the
fastest in-process.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.bench import render_table
from repro.objectmq.envelope import make_request
from repro.serialization import make_serializer
from repro.sync.models import ItemMetadata

ROUNDS = 2000


def realistic_envelope():
    metadata = ItemMetadata(
        item_id="ws-1:photos/2014/holiday-0042.jpg",
        workspace_id="ws-1",
        version=7,
        filename="photos/2014/holiday-0042.jpg",
        status="CHANGED",
        size=3_276_800,
        checksum="a" * 40,
        chunks=[f"{i:040x}" for i in range(7)],
        modified_at=1_700_000_000.123,
        device_id="laptop-1",
    )
    return make_request(
        "commit_request",
        ["ws-1", "laptop-1", [metadata], "req-1234"],
        {},
        call="async",
        multi=False,
    )


def run_ablation():
    envelope = realistic_envelope()
    results = {}
    for name in ("json", "pickle", "binary"):
        codec = make_serializer(name)
        encoded = codec.encode(envelope)
        assert codec.decode(encoded)["method"] == "commit_request"
        started = time.perf_counter()
        for _ in range(ROUNDS):
            codec.decode(codec.encode(envelope))
        elapsed = time.perf_counter() - started
        results[name] = {
            "wire_bytes": len(encoded),
            "round_trips_per_s": ROUNDS / elapsed,
        }
    return results


def test_ablation_serialization(benchmark):
    results = run_once(benchmark, run_ablation)

    print("\nAblation: RPC codec wire size and throughput")
    print(render_table(
        ["Codec", "Wire bytes", "Encode+decode / s"],
        [
            [name, r["wire_bytes"], round(r["round_trips_per_s"])]
            for name, r in results.items()
        ],
    ))

    # The Kryo-analogue binary codec beats JSON on wire size.
    assert results["binary"]["wire_bytes"] < results["json"]["wire_bytes"]
    # All codecs sustain a usable RPC rate in-process.
    for name, r in results.items():
        assert r["round_trips_per_s"] > 500, name
