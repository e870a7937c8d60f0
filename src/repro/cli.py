"""Command-line interface for exploring the reproduction.

Installed as ``stacksync-repro`` (see pyproject); also runnable as
``python -m repro.cli``.  Subcommands:

* ``trace``       — generate a §5.2 workload trace and print its summary;
* ``ub1``         — print the synthetic Ubuntu One day profile;
* ``capacity``    — evaluate equations (1)-(2) for a given arrival rate;
* ``experiments`` — list every paper artifact and its benchmark target;
* ``demo``        — run the in-process two-device sync demo;
* ``telemetry``   — replay a small trace with tracing and tail exemplars
  on and print the top-N slowest spans per layer, the span self-time
  per segment and the tail exemplars with their dominant critical-path
  segment (optionally exporting JSONL / Chrome ``trace_event`` files
  and a metrics snapshot);
* ``ops``         — boot the elastic SyncService demo stack with the ops
  endpoint (routes: :data:`repro.telemetry.http.ROUTES`), a
  scaling-decision journal, and the SLO alert engine;
* ``soak``        — run the scripted two-phase soak (diurnal ramp, flash
  crowd) at up to registered-million-user scale,
  print its per-phase figures and verify its operational contract;
* ``top``         — live terminal view of a running ops endpoint;
* ``timeline``    — render a Fig-8-style provisioning timeline from a
  decision-journal JSONL file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS
from repro.bench.reporting import render_series, render_table


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workload import TraceGenerator

    trace = TraceGenerator(
        initial_files=args.initial_files,
        training_iterations=args.training,
        snapshots=args.snapshots,
        seed=args.seed,
        scale=args.scale,
    ).generate()
    summary = trace.summary()
    print(render_table(
        ["metric", "value"],
        [
            ["operations", summary["ops"]],
            ["ADDs", summary["adds"]],
            ["UPDATEs", summary["updates"]],
            ["REMOVEs", summary["removes"]],
            ["ADD volume (MB)", round(summary["add_volume_mb"], 2)],
            ["mean file size (KB)", round(summary["mean_file_size_kb"], 1)],
        ],
    ))
    return 0


def _cmd_ub1(args: argparse.Namespace) -> int:
    from repro.workload import UB1Config, UbuntuOneTraceGenerator

    generator = UbuntuOneTraceGenerator(
        UB1Config(seconds_per_day=args.resolution), seed=args.seed
    )
    arrivals = generator.arrivals(args.day)
    hour = args.resolution / 24
    print(render_series(
        f"UB1 day {args.day}: arrivals (req/s) vs hour",
        [(t / hour, rate) for t, rate in enumerate(arrivals) if t % 10 == 0],
    ))
    print(f"peak: {generator.peak_of(arrivals):.0f} requests/minute "
          f"(paper day-8 peak: 8,514)")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.elasticity import GG1CapacityModel, SlaParameters

    params = SlaParameters(d=args.sla / 1000.0, s=args.service / 1000.0)
    model = GG1CapacityModel(params)
    delta = model.per_server_rate(ca2=args.ca2)
    eta = model.instances_for(args.rate, ca2=args.ca2)
    print(render_table(
        ["quantity", "value"],
        [
            ["SLA d", f"{args.sla:.0f} ms"],
            ["mean service time s", f"{args.service:.0f} ms"],
            ["arrival CV^2", args.ca2],
            ["per-server rate delta (eq. 1)", f"{delta:.2f} req/s"],
            [f"instances for {args.rate:.0f} req/s (eq. 2)", eta],
        ],
    ))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    rows = [
        [e.exp_id, e.paper_artifact, e.bench_file]
        for e in EXPERIMENTS.values()
    ]
    print(render_table(["id", "paper artifact", "bench target"], rows))
    print("\nrun them with: pytest benchmarks/ --benchmark-only -s")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.client import StackSyncClient
    from repro.metadata import MemoryMetadataBackend
    from repro.mom import MessageBroker
    from repro.objectmq import Broker
    from repro.storage import SwiftLikeStore
    from repro.sync import (
        SYNC_SERVICE_OID,
        SYNC_SERVICE_PREFETCH,
        SyncService,
        Workspace,
    )

    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    storage = SwiftLikeStore()
    metadata.create_user("demo")
    workspace = Workspace(workspace_id="ws-demo", owner="demo")
    metadata.create_workspace(workspace)
    server = Broker(mom)
    server.bind(
        SYNC_SERVICE_OID, SyncService(metadata, server),
        prefetch=SYNC_SERVICE_PREFETCH,
    )

    laptop = StackSyncClient("demo", workspace, mom, storage, device_id="laptop")
    phone = StackSyncClient("demo", workspace, mom, storage, device_id="phone")
    laptop.start()
    phone.start()
    meta = laptop.put_file("hello.txt", b"hello from the laptop")
    phone.wait_for_version(meta.item_id, meta.version, timeout=10)
    print("phone received:", phone.fs.read("hello.txt").decode())
    laptop.stop()
    phone.stop()
    server.close()
    mom.close()
    print("demo complete: two devices synced through the full stack.")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        disable,
        disable_exemplars,
        enable,
        enable_exemplars,
        get_registry,
        load_jsonl,
        render_flame_table,
        segment_breakdown,
        write_chrome_trace,
        write_jsonl,
    )

    reservoir = None
    if args.load:
        spans = load_jsonl(args.load)
        print(f"loaded {len(spans)} span(s) from {args.load}")
    else:
        from repro.bench.overhead import replay_stacksync
        from repro.workload import TraceGenerator

        trace = TraceGenerator(
            initial_files=args.initial_files,
            training_iterations=args.training,
            snapshots=args.snapshots,
            seed=args.seed,
        ).generate()
        tracer = enable()
        reservoir = enable_exemplars(min_samples=16, capacity=8)
        try:
            report = replay_stacksync(trace)
        finally:
            disable()
            disable_exemplars()
        spans = tracer.spans()
        layers = sorted({s.layer for s in spans})
        print(
            f"replayed {len(trace)} op(s): {len(spans)} span(s) "
            f"across {len(layers)} layer(s) ({', '.join(layers)}); "
            f"control {report.control_bytes} B, storage {report.storage_bytes} B"
        )
    print()
    print(render_flame_table(spans, top_n=args.top))

    print("\n-- where the wall-clock goes (span self-time) --")
    breakdown = segment_breakdown(spans)
    total = sum(breakdown.values()) or 1.0
    print(render_table(
        ["segment", "seconds", "share"],
        [
            [segment, f"{seconds:.3f}", f"{seconds / total:.1%}"]
            for segment, seconds in sorted(
                breakdown.items(), key=lambda kv: -kv[1]
            )[: args.top]
        ],
    ))

    if reservoir is not None:
        exemplars = reservoir.exemplars()
        print(f"\n-- tail exemplars ({len(exemplars)} kept of "
              f"{reservoir.roots_seen} roots) --")
        for exemplar in exemplars[: args.top]:
            segment, seconds, fraction = exemplar.dominant_segment()
            flag = " [error]" if exemplar.errored else ""
            print(
                f"  {exemplar.root_name}{flag}: {exemplar.duration * 1000:.1f} ms, "
                f"{len(exemplar.spans)} spans, dominant {segment} "
                f"({seconds * 1000:.1f} ms, {fraction:.0%})"
            )

    if args.jsonl:
        write_jsonl(spans, args.jsonl)
        print(f"\nwrote JSONL span dump to {args.jsonl}")
    if args.chrome:
        write_chrome_trace(spans, args.chrome)
        print(f"wrote Chrome trace_event file to {args.chrome} "
              f"(open in about:tracing or Perfetto)")
    if args.metrics:
        print("\n-- metrics snapshot --")
        print(get_registry().render_prometheus(), end="")
    return 0


def _cmd_ops(args: argparse.Namespace) -> int:
    import random
    import threading
    import time

    from repro.elasticity import PAPER_PARAMETERS, ReactiveProvisioner, SlaParameters
    from repro.metadata import ShardedMetadataBackend
    from repro.mom import MessageBroker
    from repro.objectmq import Broker, RemoteBroker, ShardedSupervisor, Supervisor
    from repro.objectmq.naming import shard_oid
    from repro.sync import (
        SYNC_SERVICE_OID,
        SyncServiceApi,
        Workspace,
        sync_service_factory,
    )
    from repro.sync.models import ItemMetadata
    from repro.telemetry import DecisionJournal, OpsServer, SloEngine, default_rules
    from repro.telemetry.http import ROUTES

    shards = args.shards
    journal = DecisionJournal(path=args.journal)
    slo = SloEngine(default_rules(), journal=journal)
    ops = OpsServer(journal=journal, slo=slo, port=args.port).start()
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as fh:
            fh.write(str(ops.port))
    print(f"ops endpoint: {ops.url}")
    print("routes: " + " ".join(ROUTES))

    mom = MessageBroker()
    # The sharded composite with one shard IS the unsharded deployment
    # (one engine, identity routing), so one code path serves both.
    if args.backend == "sqlite":
        metadata = ShardedMetadataBackend.sqlite(":memory:", shards)
    else:
        metadata = ShardedMetadataBackend.memory(shards)
    metadata.create_user("load")
    workspace_ids = [f"ws-load-{i}" for i in range(max(4, 2 * shards))]
    for workspace_id in workspace_ids:
        metadata.create_workspace(Workspace(workspace_id=workspace_id, owner="load"))
    # Request queues: the base oid unsharded, one partitioned oid per
    # shard otherwise (sync.shard.0 ... sync.shard.N-1).
    if shards > 1:
        oids = [shard_oid(SYNC_SERVICE_OID, k) for k in range(shards)]
    else:
        oids = [SYNC_SERVICE_OID]

    machines = []
    for name in ("machine-a", "machine-b"):
        broker = Broker(mom)
        rbroker = RemoteBroker(broker, broker_name=name)
        factory = sync_service_factory(metadata, broker, service_delay=lambda: 0.02)
        for oid in oids:
            rbroker.register_factory(oid, factory)
        rbroker.serve()
        machines.append(rbroker)

    params = SlaParameters(d=0.2, s=0.02, sigma_b2=PAPER_PARAMETERS.sigma_b2)
    sup_broker = Broker(mom)
    if shards > 1:
        supervisor = ShardedSupervisor(
            sup_broker,
            SYNC_SERVICE_OID,
            lambda: ReactiveProvisioner(predictive=None, params=params),
            shards,
            control_interval=0.5,
            max_instances=8,
            journal=journal,
        )
        supervisor.supervisors[0].set_heartbeat_callback(slo.evaluate)
    else:
        supervisor = Supervisor(
            sup_broker,
            SYNC_SERVICE_OID,
            ReactiveProvisioner(predictive=None, params=params),
            control_interval=0.5,
            max_instances=8,
            journal=journal,
        )
        supervisor.set_heartbeat_callback(slo.evaluate)
    supervisor.step()
    supervisor.start()

    client_broker = Broker(mom)
    if shards > 1:
        proxy = client_broker.lookup_sharded(SYNC_SERVICE_OID, SyncServiceApi, shards)
    else:
        proxy = client_broker.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    stop = threading.Event()

    def generate() -> None:
        counter = 0
        rng = random.Random(1)
        while not stop.is_set():
            counter += 1
            workspace_id = rng.choice(workspace_ids)
            item = ItemMetadata(
                workspace_id=workspace_id,
                version=1,
                filename=f"f{counter}",
                device_id="loadgen",
            )
            try:
                proxy.commit_request(workspace_id, "loadgen", [item])
            except Exception:
                if stop.is_set():
                    break
                raise
            time.sleep(rng.expovariate(args.rate))

    generator = threading.Thread(target=generate, daemon=True)
    generator.start()

    try:
        deadline = time.time() + args.duration if args.duration > 0 else None
        while deadline is None or time.time() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        generator.join(timeout=2)
        supervisor.stop()
        for machine in machines:
            machine.stop()
        client_broker.close()
        sup_broker.close()
        mom.close()
        ops.stop()
        journal.close()
    print(
        f"run complete: {len(journal.decisions())} decision(s), "
        f"{len(journal.actions())} action(s), {len(journal.alerts())} alert edge(s)"
        + (f"; journal at {args.journal}" if args.journal else "")
    )
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.bench.soak import SoakConfig, SoakVerificationError, run_soak
    from repro.telemetry import DecisionJournal

    overrides = {
        name: value
        for name, value in (
            ("users", args.users),
            ("shards", args.shards),
            ("seed", args.seed),
            ("seconds_per_day", args.seconds_per_day),
        )
        if value is not None
    }
    if args.phases:
        overrides["phases"] = tuple(p.strip() for p in args.phases.split(","))
    try:
        config = (
            SoakConfig.smoke(**overrides) if args.smoke else SoakConfig(**overrides)
        )
    except ValueError as exc:
        print(f"soak: {exc}", file=sys.stderr)
        return 2

    journal = None
    if args.journal:
        journal = DecisionJournal(
            path=args.journal, max_sink_bytes=args.journal_max_bytes
        )
    print(
        f"soak: {config.users:,} users, {config.shards} shard(s), "
        f"phases {', '.join(config.phases)}"
    )
    try:
        result = run_soak(config, journal=journal)
    finally:
        if journal is not None:
            journal.close()

    rows = [
        [
            record.name,
            record.arrivals,
            f"{record.commits_per_sec:.2f}",
            "n/a" if record.p50_latency_s is None else f"{record.p50_latency_s:.3f}",
            "n/a" if record.p99_latency_s is None else f"{record.p99_latency_s:.3f}",
            f"{record.mean_pool_size:.1f}/{record.max_pool_size}",
            record.spawns + record.shutdowns,
            record.alerts_fired,
        ]
        for record in result.records
    ]
    print(render_table(
        ["phase", "commits", "commits/s", "p50 s", "p99 s",
         "pool avg/max", "actions", "alerts"],
        rows,
    ))
    print(f"wall runtime: {result.wall_runtime_s:.1f}s; "
          f"journal events: {len(result.journal)}")

    try:
        result.verify()
    except SoakVerificationError as exc:
        print(f"contract VIOLATED: {exc}", file=sys.stderr)
        return 1
    print("contract: OK (no alert flaps, every capacity action journaled)")
    return 0


def _fetch_json(url: str):
    import json
    import urllib.request

    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read().decode("utf-8"))


def _render_top(base_url: str) -> str:
    health = _fetch_json(base_url + "/health")
    slo = _fetch_json(base_url + "/slo")
    events = _fetch_json(base_url + "/events?n=8")

    lines = [f"stacksync-repro top — {base_url}", ""]
    lines.append(f"health: {health['status']}")
    for component in health["components"]:
        mark = "ok " if component["ok"] else "FAIL"
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(component["detail"].items())
        )
        lines.append(f"  [{mark}] {component['component']:<22s} {detail}")

    lines.append("")
    active = slo["active"]
    lines.append(f"alerts: {', '.join(active) if active else 'none active'}")
    for rule in slo["rules"]:
        state = "FIRING" if rule["active"] else "ok"
        value = rule["last_value"]
        value_text = "n/a" if value is None else f"{value:g}"
        lines.append(
            f"  [{state:>6s}] {rule['definition']} (last={value_text}, "
            f"streak={rule['streak']})"
        )

    lines.append("")
    lines.append(f"journal: {events['total']} event(s); last {len(events['events'])}:")
    for event in events["events"]:
        summary = event.get("reason") or event.get("rule") or ""
        extra = event.get("policy_reason") or event.get("series") or ""
        if extra and extra != summary:
            summary = f"{summary}: {extra}" if summary else extra
        lines.append(
            f"  t={event['timestamp']:.1f} #{event['seq']:<5d} "
            f"{event['kind']:<14s} {summary[:80]}"
        )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    base_url = args.url.rstrip("/")
    try:
        if args.once:
            print(_render_top(base_url))
            return 0
        while True:
            print("\033[2J\033[H" + _render_top(base_url), flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"cannot reach ops endpoint at {base_url}: {exc}", file=sys.stderr)
        return 1


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.bench.reporting import render_provisioning_timeline
    from repro.telemetry import load_journal_lines

    with open(args.journal, "r", encoding="utf-8") as fh:
        events = load_journal_lines(fh)
    if not events:
        print(f"no journal events in {args.journal}", file=sys.stderr)
        return 1
    print(render_provisioning_timeline(
        [e.to_dict() for e in events], max_actions=args.max_actions
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacksync-repro",
        description="StackSync (Middleware 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="generate a workload trace summary")
    trace.add_argument("--initial-files", type=int, default=20)
    trace.add_argument("--training", type=int, default=5)
    trace.add_argument("--snapshots", type=int, default=100)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--scale", type=float, default=1.0)
    trace.set_defaults(func=_cmd_trace)

    ub1 = sub.add_parser("ub1", help="print a synthetic Ubuntu One day")
    ub1.add_argument("--day", type=int, default=8)
    ub1.add_argument("--seed", type=int, default=2013)
    ub1.add_argument(
        "--resolution", type=int, default=4320,
        help="trace seconds per day (86400 = real time)",
    )
    ub1.set_defaults(func=_cmd_ub1)

    capacity = sub.add_parser("capacity", help="evaluate equations (1)-(2)")
    capacity.add_argument("rate", type=float, help="arrival rate, req/s")
    capacity.add_argument("--sla", type=float, default=450.0, help="d in ms")
    capacity.add_argument("--service", type=float, default=50.0, help="s in ms")
    capacity.add_argument("--ca2", type=float, default=1.0)
    capacity.set_defaults(func=_cmd_capacity)

    experiments = sub.add_parser("experiments", help="list paper artifacts")
    experiments.set_defaults(func=_cmd_experiments)

    demo = sub.add_parser("demo", help="run the two-device sync demo")
    demo.set_defaults(func=_cmd_demo)

    telemetry = sub.add_parser(
        "telemetry",
        help="trace a small replay and show the slowest spans per layer",
    )
    telemetry.add_argument("--initial-files", type=int, default=6)
    telemetry.add_argument("--training", type=int, default=2)
    telemetry.add_argument("--snapshots", type=int, default=12)
    telemetry.add_argument("--seed", type=int, default=42)
    telemetry.add_argument(
        "--top", type=int, default=5,
        help="rows shown per layer, in the segment table and of exemplars",
    )
    telemetry.add_argument(
        "--jsonl", metavar="PATH", help="write the span dump as JSONL"
    )
    telemetry.add_argument(
        "--chrome", metavar="PATH",
        help="write a Chrome trace_event file (about:tracing / Perfetto)",
    )
    telemetry.add_argument(
        "--load", metavar="PATH",
        help="analyze a previously written JSONL dump instead of replaying",
    )
    telemetry.add_argument(
        "--metrics", action="store_true",
        help="also print the unified metrics registry snapshot",
    )
    telemetry.set_defaults(func=_cmd_telemetry)

    ops = sub.add_parser(
        "ops",
        help="boot the elastic demo stack with the ops endpoint + journal",
    )
    ops.add_argument("--port", type=int, default=0, help="0 = ephemeral port")
    ops.add_argument(
        "--duration", type=float, default=10.0,
        help="seconds to run (0 = until Ctrl-C)",
    )
    ops.add_argument(
        "--rate", type=float, default=40.0, help="commit load, requests/second"
    )
    ops.add_argument(
        "--shards", type=int, default=1,
        help="partition the metadata plane and commit path N ways",
    )
    ops.add_argument(
        "--backend", choices=("memory", "sqlite"), default="memory",
        help="metadata engine behind each shard",
    )
    ops.add_argument(
        "--journal", metavar="PATH",
        help="also append the decision journal to this JSONL file",
    )
    ops.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port here (for scripts using --port 0)",
    )
    ops.set_defaults(func=_cmd_ops)

    soak = sub.add_parser(
        "soak",
        help="run the scripted soak and verify its operational contract",
    )
    soak.add_argument(
        "--smoke", action="store_true",
        help="use the fast CI preset (10^5 users, 2 shards, compressed day)",
    )
    soak.add_argument("--users", type=int, default=None)
    soak.add_argument("--shards", type=int, default=None)
    soak.add_argument("--seed", type=int, default=None)
    soak.add_argument(
        "--phases", default=None,
        help="comma-separated subset of: diurnal-ramp,flash-crowd",
    )
    soak.add_argument(
        "--seconds-per-day", type=int, default=None,
        help="trace seconds representing one day (86400 = real time)",
    )
    soak.add_argument(
        "--journal", metavar="PATH",
        help="also append the decision journal to this JSONL file",
    )
    soak.add_argument(
        "--journal-max-bytes", type=int, default=None,
        help="rotate the journal JSONL once it exceeds this size",
    )
    soak.set_defaults(func=_cmd_soak)

    top = sub.add_parser("top", help="live view of a running ops endpoint")
    top.add_argument(
        "--url", default="http://127.0.0.1:8787", help="ops endpoint base URL"
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top.add_argument("--interval", type=float, default=1.0)
    top.set_defaults(func=_cmd_top)

    timeline = sub.add_parser(
        "timeline",
        help="render a Fig-8-style provisioning timeline from a journal",
    )
    timeline.add_argument("journal", help="decision-journal JSONL file")
    timeline.add_argument("--max-actions", type=int, default=40)
    timeline.set_defaults(func=_cmd_timeline)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
