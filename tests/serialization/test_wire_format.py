"""The pickle wire format: a byte budget, the DTO class codes and the
allow-list that makes the wire a trust boundary.

Byte counts are counts: the inputs below are fixed-width like the repo
benchmark's (``benchmarks/e2e/commit_load.py``), so every figure is exact
on every machine and a wire regression fails here, not in a benchmark run.
"""

from __future__ import annotations

import copy
import copyreg
import dataclasses
import pickle

import pytest

from repro.errors import SerializationError
from repro.objectmq.envelope import make_request
from repro.serialization import (
    BinarySerializer,
    JsonSerializer,
    PickleSerializer,
    global_wire_registry,
)
from repro.sync.models import (
    CommitNotification,
    CommitResult,
    ItemMetadata,
    Workspace,
)

WORKSPACE = "ws-52e6b438-00"
DEVICE = "dev-generator"
REQUEST_ID = "52e6b432" + "0" * 24


def proposal(item: int) -> ItemMetadata:
    path = f"dir-{item % 16:02d}/file-{item:08d}.dat"
    return ItemMetadata(
        item_id=f"{WORKSPACE}:{path}",
        workspace_id=WORKSPACE,
        version=2,
        filename=path,
        status="CHANGED",
        size=512 * 1024,
        checksum=f"{item + 1:040x}",
        chunks=[f"{item + 1001:040x}"],
        modified_at=1_400_000_002.0,
        device_id=DEVICE,
    )


def commit_request(items):
    return make_request(
        "commit_request", [WORKSPACE, DEVICE, items], {"request_id": REQUEST_ID},
        call="async", multi=False,
    )


def notify_commit(items):
    notification = CommitNotification(
        workspace_id=WORKSPACE,
        source_device=DEVICE,
        results=[CommitResult(metadata=item, confirmed=True) for item in items],
        committed_at=1_400_000_002.5,
        request_id=REQUEST_ID,
    )
    return make_request("notify_commit", [notification], {}, call="async", multi=True)


DTOS = [
    Workspace(workspace_id=WORKSPACE, owner="alice", name="docs"),
    proposal(0),
    CommitResult(metadata=proposal(0), confirmed=False, current=proposal(1)),
    notify_commit([proposal(0)])["args"][0],
]


# -- the wire budget ---------------------------------------------------------


@pytest.mark.parametrize(
    "items, request_budget, notify_budget", [(1, 350, 350), (8, 1700, 1750)]
)
def test_pickle_wire_budget(items, request_budget, notify_budget):
    codec = PickleSerializer()
    proposals = [proposal(i) for i in range(items)]
    assert len(codec.encode(commit_request(proposals))) <= request_budget
    assert len(codec.encode(notify_commit(proposals))) <= notify_budget


def test_dto_travels_as_class_code_and_values_only():
    body = PickleSerializer().encode(proposal(0))
    assert bytes((pickle.EXT1[0], 241)) in body
    for spelled_out in (b"repro.sync.models", b"ItemMetadata", b"item_id", b"chunks"):
        assert spelled_out not in body


@pytest.mark.parametrize(
    "codec", [PickleSerializer(), JsonSerializer(), BinarySerializer()],
    ids=lambda c: c.name,
)
def test_every_codec_round_trips_both_envelopes(codec):
    proposals = [proposal(i) for i in range(3)]
    for envelope in (commit_request(proposals), notify_commit(proposals)):
        assert codec.decode(codec.encode(envelope)) == envelope


# -- one registration per DTO ---------------------------------------------------


def test_class_codes_are_pinned():
    """Codes are wire format: renumbering one breaks every deployed peer."""
    expected = {Workspace: 240, ItemMetadata: 241, CommitResult: 242,
                CommitNotification: 243}
    for cls, code in expected.items():
        key = (cls.__module__, cls.__qualname__)
        assert copyreg._extension_registry[key] == code
        assert global_wire_registry.pickle_classes[key] is cls
        assert cls in copyreg.dispatch_table
    assert len(global_wire_registry.pickle_classes) == len(expected)


@pytest.mark.parametrize("dto", DTOS, ids=lambda d: type(d).__name__)
def test_dto_copy_and_replace_still_work(dto):
    clone = copy.deepcopy(dto)
    assert clone == dto and clone is not dto
    first = dataclasses.fields(dto)[0].name
    replaced = dataclasses.replace(dto, **{first: "other"})
    assert getattr(replaced, first) == "other"
    assert dataclasses.replace(replaced, **{first: getattr(dto, first)}) == dto


@pytest.mark.parametrize("dto", DTOS, ids=lambda d: type(d).__name__)
def test_registered_dto_round_trips_through_the_allow_list(dto):
    codec = PickleSerializer()
    assert codec.decode(codec.encode(dto)) == dto


def test_body_pickled_by_class_name_still_decodes():
    """What a peer without the class codes sends: the class by name, then
    NEWOBJ + BUILD, inside an envelope with keys nothing reads any more."""
    legacy = (
        b"\x80\x04}(\x8c\x06method\x8c\x01m\x8c\x07sent_at\x47" + b"\x00" * 8
        + b"\x8c\x04args]"
        b"\x8c\x11repro.sync.models\x8c\x09Workspace\x93)\x81"
        b"}(\x8c\x0cworkspace_id\x8c\x02ws\x8c\x05owner\x8c\x05alice"
        b"\x8c\x04name\x8c\x00ubau."
    )
    assert pickle.loads(legacy) == PickleSerializer().decode(legacy)
    assert PickleSerializer().decode(legacy)["args"] == [Workspace("ws", "alice")]


# -- the trust boundary -----------------------------------------------------------


class _Exploit:
    def __reduce__(self):
        import os

        return (os.system, ("echo pwned",))


def test_body_that_would_call_os_system_is_refused():
    body = pickle.dumps({"method": "m", "args": [_Exploit()]})
    with pytest.raises(SerializationError, match="not a registered wire type"):
        PickleSerializer().decode(body)


def test_unregistered_class_of_this_package_is_refused():
    from repro.mom.message import Message

    with pytest.raises(SerializationError):
        PickleSerializer().decode(pickle.dumps(Message(b"x")))


def test_crafted_positional_item_fails_validation():
    """Decoding goes through ``cls(*values)``, so ``__post_init__`` runs."""
    good = PickleSerializer().encode(proposal(0))
    assert good.count(b"K\x02") == 1  # BININT1 2: the version field
    for crafted in (
        good.replace(b"K\x02", b"K\x00"),  # version=0
        good.replace(b"\x07CHANGED", b"\x07BOGUS!!"),  # status
    ):
        with pytest.raises(SerializationError):
            PickleSerializer().decode(crafted)
