"""Layer probes: each layer timed in isolation on a fixed input.

One short extra run beside the traced one.  Every probe takes at least
``SAMPLES`` samples and reports their median, so a change to one layer can
be seen without the rest of the stack around it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.mom import DirectExchange, FanoutExchange, Message, MessageQueue
from repro.objectmq.envelope import make_request
from repro.serialization import CODECS, make_serializer
from repro.sync import SYNC_SERVICE_OID, SyncServiceApi, Workspace

import measure
from commit_load import DEVICE, Inputs
from stack import build_stack

SAMPLES = 2000
#: Calls per sample where one call is too short for the clock.
BATCH = 50


def _median_us(samples: List[float], per: int = 1) -> float:
    return measure.percentile(samples, 0.5) / per * 1e6


def _time_batches(call: Callable[[], object]) -> List[float]:
    samples = []
    for _ in range(SAMPLES):
        started = time.perf_counter()
        for _ in range(BATCH):
            call()
        samples.append(time.perf_counter() - started)
    return samples


def codec_roundtrips(inputs: Inputs) -> Dict[str, float]:
    """Encode + decode of one 1-item commit envelope, per registered codec."""
    workspace, items = inputs.update(0)
    envelope = make_request(
        "commit_request", [workspace, DEVICE, items],
        {"request_id": inputs.request_id(2, 0)}, call="async", multi=False, clock=0.0,
    )
    out = {}
    for name in sorted(CODECS):
        codec = make_serializer(name)
        if codec.decode(codec.encode(envelope))["args"][2] != items:
            raise AssertionError(f"codec {name} does not round-trip the envelope")
        samples = _time_batches(lambda: codec.decode(codec.encode(envelope)))
        out[name] = _median_us(samples, BATCH)
    return out


def exchange_route() -> float:
    """``Exchange.route`` on a direct and a fanout exchange, two bindings each."""
    direct = DirectExchange("probe.direct")
    fanout = FanoutExchange("probe.fanout")
    for exchange in (direct, fanout):
        exchange.bind("q1", "key")
        exchange.bind("q2", "key")

    def call():
        direct.route("key")
        fanout.route("key")

    return _median_us(_time_batches(call), 2 * BATCH)


def queue_put_ack() -> float:
    """``MessageQueue`` put -> consumer callback -> ack, one message at a time."""
    queue = MessageQueue("probe.queue")
    delivered = threading.Event()

    def on_delivery(delivery):
        queue.ack(delivery.delivery_tag)
        delivered.set()

    queue.add_consumer("probe", on_delivery, prefetch=1)
    body = b"x" * 512
    samples = []
    try:
        for _ in range(SAMPLES):
            delivered.clear()
            started = time.perf_counter()
            queue.put(Message(body=body))
            if not delivered.wait(5.0):
                raise AssertionError("probe queue never delivered")
            samples.append(time.perf_counter() - started)
    finally:
        queue.close()
    return _median_us(samples)


def reply_rtt(inputs: Inputs) -> float:
    """A near-null sync RPC through the whole stack: ``get_workspaces``."""
    stack = build_stack("memory")
    broker = stack.broker("probe-rtt")
    try:
        stack.metadata.create_user(inputs.user)
        stack.metadata.create_workspace(
            Workspace(workspace_id=inputs.workspaces[0], owner=inputs.user)
        )
        proxy = broker.lookup(SYNC_SERVICE_OID, SyncServiceApi)
        samples = []
        for _ in range(SAMPLES + 200):
            started = time.perf_counter()
            spaces = proxy.get_workspaces(inputs.user)
            samples.append(time.perf_counter() - started)
            if len(spaces) != 1:
                raise AssertionError("get_workspaces returned a wrong answer")
        return _median_us(samples[200:])
    finally:
        broker.close()
        stack.close()


def run(seed: int) -> Dict[str, Tuple[float, str]]:
    inputs = Inputs(seed, 1)
    codecs = codec_roundtrips(inputs)
    return {
        "serialization.probe_pickle_roundtrip_us": (codecs["pickle"], "us"),
        "serialization.probe_json_roundtrip_us": (codecs["json"], "us"),
        "serialization.probe_binary_roundtrip_us": (codecs["binary"], "us"),
        "mom.probe_route_us": (exchange_route(), "us"),
        "mom.probe_put_ack_us": (queue_put_ack(), "us"),
        "objectmq.reply_rtt_us": (reply_rtt(inputs), "us"),
        "bench.probe_samples": (SAMPLES, "count"),
    }
