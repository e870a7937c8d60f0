"""Telemetry overhead smoke: the disabled path must cost (almost) nothing.

Two guarantees back the "zero-cost when disabled" claim:

1. **Byte identity** — with telemetry disabled, a deterministic
   ``replay_stacksync`` run produces exactly the byte counters pinned
   below: no trace context on the wire, no header stamps, nothing.  The
   ops and storage pins are the seed tree's (before any instrumentation
   existed); the control pin is "telemetry off == this wire format" and
   moves only with the wire format itself (158,556 B on the seed tree's
   name-spelling pickle; 83,040 B once DTOs travelled as class code +
   positional values in a slim envelope; 58,904 B since digests travel
   as raw bytes and a conventional item id is not sent; 58,898 B since a
   deletion's empty chunk list is an empty tuple, one byte shorter; 48,434 B
   since envelopes and confirmed results travel by position and a
   single-chunk file's checksum is sent once; 48,186 B since an item's
   layout has no slot for its id, which the model derives; 39,878 B since
   a body of one frame goes without its frame header, a request names its
   method by its index in a table, and a keyword argument that fills a
   position travels by position).
2. **Time overhead < 2 %** — the disabled path adds one attribute check
   per instrumentation site.  Wall-clock A/B runs of the replay are too
   noisy at smoke scale, so the bound is asserted by projection: measure
   the per-site guard cost with a micro-benchmark, multiply by a generous
   per-op site count, and compare against the measured per-op replay
   time.

Run via the CI bench-smoke job or ``pytest benchmarks/ -k telemetry``.
"""

from __future__ import annotations

import time
import timeit

from repro.bench.overhead import replay_stacksync
from repro.telemetry import enabled, get_tracer
from repro.workload import TraceGenerator

#: Byte counters for TraceGenerator(initial_files=6,
#: training_iterations=2, snapshots=12, seed=42), batch_size=1, telemetry
#: off.  Ops and storage: captured on the seed tree before any telemetry
#: code existed.  Control: this wire format (see the module docstring).
PINNED_OPS = 124
PINNED_CONTROL_BYTES = 39878
PINNED_STORAGE_BYTES = 52006508

#: Instrumentation sites a single replayed op can cross (bench, client,
#: proxy serialize/cast, queue stamps, skeleton, sync×2, metadata,
#: storage per chunk, notification fanout...) — 64 is a generous ceiling.
SITES_PER_OP = 64


def smoke_trace():
    return TraceGenerator(
        initial_files=6, training_iterations=2, snapshots=12, seed=42
    ).generate()


def test_disabled_byte_counters_match_pre_telemetry_values():
    assert not enabled()
    trace = smoke_trace()
    assert len(trace) == PINNED_OPS
    report = replay_stacksync(trace)
    assert report.control_bytes == PINNED_CONTROL_BYTES
    assert report.storage_bytes == PINNED_STORAGE_BYTES


def test_disabled_guard_overhead_under_two_percent():
    assert not enabled()
    trace = smoke_trace()

    started = time.perf_counter()
    replay_stacksync(trace)
    seconds_per_op = (time.perf_counter() - started) / len(trace)

    # Per-site disabled cost, measured on the *most expensive* disabled
    # shape: an unconditional span() call that builds its attrs dict
    # before the enabled check short-circuits inside.
    tracer = get_tracer()
    iterations = 100_000
    guard_seconds = timeit.timeit(
        lambda: tracer.span("x", layer="bench", attrs={"k": 1}),
        number=iterations,
    ) / iterations

    projected_overhead = guard_seconds * SITES_PER_OP
    ratio = projected_overhead / seconds_per_op
    print(
        f"\ntelemetry disabled-path projection: {guard_seconds * 1e9:.0f} ns/site"
        f" x {SITES_PER_OP} sites = {projected_overhead * 1e6:.1f} us/op"
        f" vs {seconds_per_op * 1e6:.1f} us/op replay ({ratio * 100:.3f}%)"
    )
    assert ratio < 0.02
