"""The three commit workloads: metadata-only ``commit_request`` casts.

A single generator thread casts ``SyncServiceApi.commit_request`` at the
stack; an operation is complete when ``notify_commit`` has reached the last
listener bound to its workspace.  No file content moves: the middleware
(proxy, codec, MOM, skeleton, fanout) and the metadata engine do the work.

Every operation of the measured phase is an UPDATE of one of ``POOL`` items
per workspace that the warm-up committed at version 1, so each request and
notification has the same number of bytes (fixed-width ids, versions below
256) and the workspace state a joining device fetches has a fixed size.
That is what makes ``wire_bytes_per_op`` repeat exactly although the number
of operations a time-bounded run completes does not.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.sync import SYNC_SERVICE_OID, SyncServiceApi, Workspace
from repro.sync.interface import workspace_oid
from repro.sync.models import STATUS_CHANGED, STATUS_NEW, ItemMetadata

import measure
from pacing import Ledger, OpenLoop
from stack import Stack, build_stack, peak_rss_mb, timed_setups

WORKSPACES = 16
#: Items per workspace.  Large enough that no item reaches version 256
#: (where pickle widens the integer) in a 60 s run at five times today's
#: rate, and that two operations in flight never touch the same item.
POOL = 512
#: File size every committed version declares: one 512 KiB chunk, the
#: paper's chunk size.  The content itself is "already in the store".
DECLARED_SIZE = 512 * 1024
#: The paper's commit response-time SLA; a paced commit later than this failed.
SLA_S = 0.450
OP_TIMEOUT_S = 30.0
DEVICE = "dev-generator"
JOINS = 15
_EPOCH = 1_400_000_000.0


@dataclass(frozen=True)
class Profile:
    items_per_op: int
    engine: str
    listeners: int
    window: int  # operations in flight in closed-loop phases
    rate: Optional[float]  # operations per second; None = closed loop throughout


PROFILES: Dict[str, Profile] = {
    "commit_storm": Profile(1, "memory", 1, 16, None),
    "commit_paced": Profile(1, "memory", 1, 16, 1500.0),  # window: populate only
    "commit_bundle_sqlite": Profile(8, "sqlite", 2, 4, None),
}


class Inputs:
    """Everything the program is fed, as a pure function of the seed."""

    def __init__(self, seed: int, items_per_op: int):
        rng = random.Random(seed)
        self.items_per_op = items_per_op
        self.tag = f"{rng.getrandbits(32):08x}"
        self.user = f"user-{self.tag}"
        self.warm_user = f"warm-{self.tag}"
        self.workspaces = [f"ws-{self.tag}-{w:02d}" for w in range(WORKSPACES)]
        self.warm_workspaces = [f"wu-{self.tag}-{w:02d}" for w in range(WORKSPACES)]
        # Two pools: a checksum and a fingerprint must never be one object,
        # or pickle's memo would shorten that request by a few bytes.
        self._checksums = [f"{rng.getrandbits(160):040x}" for _ in range(1024)]
        self._fingerprints = [f"{rng.getrandbits(160):040x}" for _ in range(1024)]

    def request_id(self, phase: int, index: int) -> str:
        """32 hex characters, like the client's ``uuid4().hex``."""
        return f"{self.tag[:7]}{phase:1x}{index:024x}"

    def proposal(self, workspace: str, item: int, version: int) -> ItemMetadata:
        path = f"dir-{item % 16:02d}/file-{item:08d}.dat"
        return ItemMetadata(
            item_id=f"{workspace}:{path}",
            workspace_id=workspace,
            version=version,
            filename=path,
            status=STATUS_NEW if version == 1 else STATUS_CHANGED,
            size=DECLARED_SIZE,
            checksum=self._checksums[(item * 7 + version) % 1024],
            chunks=[self._fingerprints[(item * 13 + version * 3) % 1024]],
            modified_at=_EPOCH + version,
            device_id=DEVICE,
        )

    def populate(self, index: int) -> Tuple[str, List[ItemMetadata]]:
        """Operation *index* of the phase that commits version 1 of the pool."""
        workspace = self.workspaces[index % WORKSPACES]
        first = (index // WORKSPACES) * self.items_per_op
        return workspace, [
            self.proposal(workspace, first + r, 1) for r in range(self.items_per_op)
        ]

    @property
    def populate_ops(self) -> int:
        return WORKSPACES * POOL // self.items_per_op

    def update(self, index: int) -> Tuple[str, List[ItemMetadata]]:
        """Measured operation *index*: the next version of the next items."""
        workspace = self.workspaces[index % WORKSPACES]
        touched = (index // WORKSPACES) * self.items_per_op
        version = 2 + touched // POOL
        return workspace, [
            self.proposal(workspace, (touched + r) % POOL, version)
            for r in range(self.items_per_op)
        ]

    def fresh(self, index: int) -> Tuple[str, List[ItemMetadata]]:
        """Warm-up operation *index*: brand-new items in a warm-up workspace."""
        workspace = self.warm_workspaces[index % WORKSPACES]
        first = (index // WORKSPACES) * self.items_per_op
        return workspace, [
            self.proposal(workspace, first + r, 1) for r in range(self.items_per_op)
        ]

    def history(self, w: int, item: int, ops: int) -> List[ItemMetadata]:
        """Reference version chain of one item after *ops* measured operations."""
        in_workspace = (ops - w + WORKSPACES - 1) // WORKSPACES if ops > w else 0
        touched = in_workspace * self.items_per_op
        updates = touched // POOL + (1 if item < touched % POOL else 0)
        workspace = self.workspaces[w]
        return [self.proposal(workspace, item, v) for v in range(1, updates + 2)]


class Listener:
    """A device bound to one workspace's ``notify_commit`` fanout."""

    def __init__(self, sink: "Sink"):
        self._sink = sink
        self.seen: List[str] = []

    def notify_commit(self, notification) -> None:
        now = time.perf_counter()
        request_id = notification.request_id
        self.seen.append(request_id)
        confirmed = True
        for result in notification.results:
            if not result.confirmed:
                confirmed = False
        self._sink.ledger.arrived(int(request_id[8:], 16), now, confirmed)


class Sink:
    """Where listeners report; swapped between phases while nothing is in flight."""

    ledger: Ledger


@dataclass
class Deployment:
    stack: Stack
    receiver: object
    client: object
    proxy: object
    listeners: Dict[str, List[Listener]]
    sink: Sink

    def close(self) -> None:
        self.client.close()
        self.receiver.close()
        self.stack.close()


def deploy(profile: Profile, inputs: Inputs, rec=None) -> Deployment:
    """The stack plus users, workspaces, bound listeners and the generator's proxy."""
    stack = build_stack(profile.engine, rec)
    sink = Sink()
    for user, names in (
        (inputs.user, inputs.workspaces),
        (inputs.warm_user, inputs.warm_workspaces),
    ):
        stack.metadata.create_user(user)
        for name in names:
            stack.metadata.create_workspace(Workspace(workspace_id=name, owner=user))
    receiver = stack.broker(f"recv-{inputs.tag}")
    listeners: Dict[str, List[Listener]] = {}
    for name in inputs.workspaces + inputs.warm_workspaces:
        listeners[name] = []
        for _ in range(profile.listeners):
            listener = Listener(sink)
            if rec is not None:
                listener.notify_commit = rec.wrap(
                    listener.notify_commit, "bench.listener",
                    op_of=lambda args, kwargs: args[0].request_id,
                )
            receiver.bind(workspace_oid(name), listener)
            listeners[name].append(listener)
    client = stack.broker(f"gen-{inputs.tag}")
    proxy = client.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    return Deployment(stack, receiver, client, proxy, listeners, sink)


@dataclass
class Phase:
    ledger: Ledger
    issued: int
    begin: float
    end: float
    cpu_s: float
    late: List[float]
    drained: bool


def drive(
    dep: Deployment,
    profile: Profile,
    source: Callable[[int], Tuple[str, List[ItemMetadata]]],
    request_id: Callable[[int], str],
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    paced: bool = False,
) -> Phase:
    """Run one phase to quiescence: *count* operations or *seconds* of them.

    Closed loop unless *paced*: the next cast waits for a free slot of the
    window.  Paced phases follow the profile's open-loop schedule and time
    each operation from its due time.
    """
    ledger = Ledger(profile.listeners, None if paced else profile.window)
    dep.sink.ledger = ledger
    cast = dep.proxy.commit_request
    late: List[float] = []
    cpu0 = time.process_time()
    begin = time.perf_counter()
    issued = 0
    if paced:
        total = count if count is not None else int(profile.rate * seconds)
        schedule = OpenLoop(profile.rate, total)
        for index, due in schedule:
            workspace, items = source(index)
            ledger.issue(due)
            cast(workspace, DEVICE, items, request_id=request_id(index))
        issued = total
        late = schedule.late
    else:
        deadline = begin + seconds if seconds is not None else None
        while count is None or issued < count:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if not ledger.acquire_slot(OP_TIMEOUT_S):
                break  # the stack stopped answering; the ledger shows what is missing
            workspace, items = source(issued)
            ledger.issue(time.perf_counter())
            cast(workspace, DEVICE, items, request_id=request_id(issued))
            issued += 1
    drained = ledger.drain(OP_TIMEOUT_S)
    end = max(ledger.done) if drained and ledger.done else time.perf_counter()
    return Phase(ledger, issued, begin, end, time.process_time() - cpu0, late, drained)


def join(dep: Deployment, inputs: Inputs, number: int):
    """A fresh device's start-up RPCs: get_workspaces, then every get_changes."""
    started = time.perf_counter()
    broker = dep.stack.broker(f"join{number}-{inputs.tag}")
    try:
        proxy = broker.lookup(SYNC_SERVICE_OID, SyncServiceApi)
        spaces = proxy.get_workspaces(inputs.user)
        states = {
            space.workspace_id: proxy.get_changes(space.workspace_id)
            for space in spaces
        }
        return time.perf_counter() - started, states
    finally:
        broker.close()


def check_outputs(dep, inputs, phase: Phase, commits, conflicts, states) -> List[str]:
    """Compare what the stack holds and delivered with the generated inputs."""
    problems: List[str] = []
    ops = phase.issued
    if not phase.drained or phase.ledger.incomplete():
        problems.append(f"{phase.ledger.incomplete()} operations never completed")
    if phase.ledger.miscounted():
        problems.append(f"{phase.ledger.miscounted()} operations notified twice")
    if phase.ledger.rejected:
        problems.append(f"{phase.ledger.rejected} notifications carried a conflict")
    if commits != ops:
        problems.append(f"sync.commits {commits} != {ops} operations attempted")
    if conflicts:
        problems.append(f"sync.conflicts {conflicts} != 0")
    for w, workspace in enumerate(inputs.workspaces):
        expected = sorted(
            inputs.request_id(2, i) for i in range(w, ops, WORKSPACES)
        )
        for listener in dep.listeners[workspace]:
            if sorted(listener.seen) != expected:
                problems.append(f"a listener of {workspace} missed or repeated a notification")
        current = []
        for item in range(POOL):
            reference = inputs.history(w, item, ops)
            stored = dep.stack.metadata.item_history(reference[0].item_id)
            if stored != reference:
                problems.append(f"history of {reference[0].item_id} differs from the reference")
                break
            current.append(reference[-1])
        current.sort(key=lambda meta: meta.item_id)
        for number, state in enumerate(states):
            if state.get(workspace) != current:
                problems.append(f"join {number} got a wrong state for {workspace}")
    return problems


def run(workload: str, seed: int, seconds: float, warmup: float, rec=None) -> dict:
    """One run of a commit workload in this process; returns the raw result."""
    profile = PROFILES[workload]
    inputs = Inputs(seed, profile.items_per_op)
    paced = profile.rate is not None
    dep = deploy(profile, inputs, rec)
    try:
        # Warm-up, part one: commit version 1 of every pooled item (a fixed
        # count, so the measured phase always starts from the same state).
        # Part two: the measured load itself, on workspaces and items of its
        # own, until the warm-up time is used up.
        warm_begin = time.perf_counter()
        populate = drive(
            dep, profile, inputs.populate,
            lambda i: inputs.request_id(0, i), count=inputs.populate_ops,
        )
        remaining = max(1.0, warmup - (time.perf_counter() - warm_begin))
        drive(
            dep, profile, inputs.fresh, lambda i: inputs.request_id(1, i),
            seconds=remaining, paced=paced,
        )
        for group in dep.listeners.values():
            for listener in group:
                listener.seen.clear()
        mom = dep.stack.raw_mom
        store = dep.stack.storage
        service = dep.stack.service
        stats0 = mom.stats.snapshot()
        bytes_in0 = store.bytes_in
        commits0, conflicts0 = service.commit_count, service.conflict_count
        if rec is not None:
            rec.spans.clear()  # keep the measured phase only

        phase = drive(
            dep, profile, inputs.update, lambda i: inputs.request_id(2, i),
            seconds=seconds, paced=paced,
        )

        stats1 = mom.stats.snapshot()
        wire = stats1["bytes_published"] - stats0["bytes_published"]
        commits = service.commit_count - commits0
        conflicts = service.conflict_count - conflicts0
        joins = [join(dep, inputs, number) for number in range(JOINS)]
        problems = check_outputs(
            dep, inputs, phase, commits, conflicts, [states for _s, states in joins]
        )
        if populate.ledger.incomplete() or populate.ledger.rejected:
            problems.append("the populate phase did not commit cleanly")
        counts = {
            "mom.published": (stats1["publishes"] - stats0["publishes"], "count"),
            "mom.redelivered": (mom.queue_stats(SYNC_SERVICE_OID)["redelivered"], "count"),
            "mom.depth_max": (mom.declare_queue(SYNC_SERVICE_OID).depth_high_water, "count"),
            "sync.commits": (commits, "count"),
            "sync.conflicts": (conflicts, "count"),
            "storage.put_count": (store.put_count, "count"),
            "storage.get_count": (store.get_count, "count"),
            "storage.bytes_in": (store.bytes_in, "B"),
            "storage.bytes_out": (store.bytes_out, "B"),
        }
        stored = store.bytes_in - bytes_in0
    finally:
        dep.close()
    setup_s = timed_setups(lambda: deploy(profile, inputs))

    ops = phase.issued
    latencies = phase.ledger.latencies()
    late_sla = sum(1 for value in latencies if value > SLA_S) if paced else 0
    elapsed = phase.end - phase.begin
    user_bytes = ops * profile.items_per_op * DECLARED_SIZE
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / elapsed, "1/s"),
        "op_p50_ms": (measure.percentile(latencies, 0.50) * 1e3, "ms"),
        "op_p95_ms": (measure.percentile(latencies, 0.95) * 1e3, "ms"),
        "cpu_us_per_op": (phase.cpu_s / ops * 1e6, "us"),
        "wire_bytes_per_op": (wire / ops, "B"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "payload_mb_per_s": (user_bytes / elapsed / 1e6, "MB/s"),
        "traffic_overhead_ratio": ((stored + wire) / user_bytes, "ratio"),
        "join_s": (measure.percentile([s for s, _ in joins], 0.5), "s"),
        "bench.op_p99_ms": (measure.percentile(latencies, 0.99) * 1e3, "ms"),
        "bench.op_samples": (len(latencies), "count"),
        "bench.gen_late_p95_ms": (
            measure.percentile(phase.late, 0.95) * 1e3 if phase.late else 0.0, "ms"),
        **counts,
    }
    samples = {}
    if rec is not None:
        samples = {
            inputs.request_id(2, i): (phase.ledger.started[i], phase.ledger.done[i])
            for i in range(ops)
            if phase.ledger.done[i]
        }
    return {
        "metrics": metrics,
        "attempted": ops,
        "failed": phase.ledger.incomplete() + phase.ledger.rejected + late_sla,
        "problems": problems,
        "samples": samples,
        "items": ops * profile.items_per_op,
    }
