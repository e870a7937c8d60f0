"""The pickle wire format: a byte budget, the DTO and envelope codes and
packed layouts, and the allow-list that makes the wire a trust boundary.

Byte counts are counts: the inputs below are fixed-width like the repo
benchmark's (``benchmarks/e2e/commit_load.py``), so every figure is exact
on every machine and a wire regression fails here, not in a benchmark run.
"""

from __future__ import annotations

import copy
import copyreg
import dataclasses
import hashlib
import importlib
import io
import pickle
import pkgutil
import re

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.client.fingerprint import sha1_fingerprint
from repro.errors import NotARemoteInterface, SerializationError
from repro.metadata import MemoryMetadataBackend
from repro.objectmq import interface_specs
from repro.objectmq.envelope import (
    METHODS,
    Reply,
    Request,
    make_reply,
    make_request,
    unpack_reply,
    unpack_request,
)
from repro.serialization import (
    BinarySerializer,
    JsonSerializer,
    PickleSerializer,
    WireRegistry,
    global_wire_registry,
)
from repro.sync import SyncService
from repro.sync.models import (
    CommitNotification,
    CommitResult,
    VALID_STATUSES,
    ItemMetadata,
    Workspace,
    make_item_id,
    unpack_item,
    unpack_notification,
)
from repro.telemetry.trace import TRACE_KEY
from tests.conftest import make_metadata_backend

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
    "items, request_budget, notify_budget", [(1, 205, 190), (8, 930, 910)],
    ids=["1-item", "8-items"],  # not the budgets: they fall, the test stays
)
def test_pickle_wire_budget(items, request_budget, notify_budget):
    codec = PickleSerializer()
    proposals = [proposal(i) for i in range(items)]
    assert len(codec.encode(commit_request(proposals))) <= request_budget
    assert len(codec.encode(notify_commit(proposals))) <= notify_budget


def test_dto_travels_as_class_code_and_values_only():
    item = proposal(0)
    body = PickleSerializer().encode(item)
    assert bytes((pickle.EXT1[0], 250)) in body
    for spelled_out in (b"repro.sync.models", b"ItemMetadata", b"unpack_item",
                        b"item_id", b"chunks", b"CHANGED"):
        assert spelled_out not in body
    # A digest is its 20 bytes, and the item id, derived, is not sent.
    assert not re.search(rb"[0-9a-f]{40}", body)
    assert item.item_id.encode() not in body
    assert body.count(WORKSPACE.encode()) == 1
    assert item.checksum in body
    assert item.chunks[0] in body


def test_a_single_chunk_file_sends_its_digest_once():
    item = dataclasses.replace(proposal(0), checksum=proposal(0).chunks[0])
    body = PickleSerializer().encode(item)
    assert body.count(item.checksum) == 1
    decoded = PickleSerializer().decode(body)
    assert decoded == item and decoded.chunks == (item.checksum,)
    assert decoded.record[18:] == bytes((20, 20)) + item.checksum  # held once


def test_envelopes_and_confirmed_results_travel_by_position():
    """No envelope key is spelled out, ``ok`` is left to the receiver, and a
    confirmed result without ``current`` is just its item."""
    codec, layout = PickleSerializer(), copyreg.dispatch_table
    call = make_request("get_changes", ["ws"], {}, call="sync", multi=False,
                        reply_to="response.abc", correlation_id="c1")
    assert layout[Request](call) == (unpack_request, (2, ["ws"], None,
                                                      "response.abc", "c1"))
    assert layout[Request](commit_request([]))[1] == (
        0, [WORKSPACE, DEVICE, []], {"request_id": REQUEST_ID}
    )
    assert layout[Reply](make_reply("c1", result=7)) == (unpack_reply, ("c1", 7))
    assert layout[Reply](make_reply("c1", error="E: x"))[1] == ("c1", None, "E: x")
    for envelope, code in ((call, 251), (make_reply("c1", result=7), 247)):
        body = codec.encode(envelope)
        assert body.startswith(pickle.EXT1 + bytes([code]))  # unframed: no PROTO, no FRAME
        assert not re.search(rb"get_changes|method|args|reply_to|correlation_id|ok|result|error",
                             body)
    conflict = CommitResult(proposal(1), False, current=proposal(2))
    notification = dataclasses.replace(
        notify_commit([proposal(0)])["args"][0],
        results=[CommitResult(proposal(0), True), conflict],
    )
    assert layout[CommitNotification](notification)[1][2] == [proposal(0), conflict]
    assert codec.decode(codec.encode(notification)) == notification


@pytest.mark.parametrize(
    "envelope", [Request(method="m", args=[], sent_at=0.0),
                 Reply(make_reply("c1"), call="sync")],
    ids=["request", "reply"],
)
def test_an_envelope_key_outside_the_layout_is_refused(envelope):
    with pytest.raises(SerializationError, match="no place in its layout"):
        PickleSerializer().encode(envelope)


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
    """Codes are wire format: renumbering one breaks every deployed peer.

    A packed layout's code names its unpack function; 241 and 243 (the
    unpacked ``ItemMetadata`` / ``CommitNotification`` layouts), 244 and 245
    (their first packed layouts), 246 (a request layout that spelled its method
    out) and 248 (an item layout with an id slot) are retired for good.
    """
    expected = {Workspace: 240, CommitResult: 242, unpack_request: 251,
                unpack_reply: 247, unpack_notification: 249, unpack_item: 250}
    for admitted, code in expected.items():
        key = (admitted.__module__, admitted.__qualname__)
        assert copyreg._extension_registry[key] == code
        assert global_wire_registry.pickle_classes[key] is admitted
    for cls in (Workspace, ItemMetadata, CommitResult, CommitNotification, Request, Reply):
        assert global_wire_registry.pickle_classes[cls.__module__, cls.__qualname__] is cls
        assert cls in copyreg.dispatch_table
    assert len(global_wire_registry.pickle_classes) == 10
    ours = {code for code in copyreg._inverted_registry if 240 <= code <= 255}
    assert ours == {240, 242, 247, 249, 250, 251}


def test_method_codes_are_pinned():
    """A method code is wire format like a class code: the table only grows."""
    assert METHODS == (
        "commit_request", "notify_commit", "get_changes", "get_workspaces",
        "create_workspace", "share_workspace", "ping", "get_object_info", "spawn", "shutdown",
    )
    for code, name in enumerate(METHODS):
        request = make_request(name, [], {}, call="async", multi=False)
        assert copyreg.dispatch_table[Request](request)[1] == (code, [])
        assert unpack_request(code, []) == request
    outside = make_request("total", [1], {}, call="async", multi=False)
    assert copyreg.dispatch_table[Request](outside)[1] == ("total", [1])
    assert PickleSerializer().decode(PickleSerializer().encode(outside)) == outside


def _is_remote_interface(value) -> bool:
    try:
        interface_specs(value)
    except NotARemoteInterface:
        return False
    return True


def _shipped_remote_interfaces():
    """Every ``@remote_interface`` class defined in the ``repro`` package."""
    found = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        for value in vars(importlib.import_module(module.name)).values():
            if (isinstance(value, type) and _is_remote_interface(value)
                    and value.__module__.startswith("repro.")):
                found.add(value)
    return found


def test_every_method_of_every_shipped_interface_has_a_code():
    interfaces = _shipped_remote_interfaces()
    assert {cls.__name__ for cls in interfaces} >= {
        "SyncServiceApi", "RemoteWorkspaceApi", "RemoteBrokerApi"}
    for cls in interfaces:
        assert set(interface_specs(cls)) <= set(METHODS), cls.__name__


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


def test_a_body_of_one_frame_travels_unframed():
    """``PROTO 5`` + ``FRAME n`` are cut off a body that one frame spans, and
    a body framed as pickle writes it (what older peers send) still decodes."""
    codec = PickleSerializer()
    request = commit_request([proposal(0)])
    framed = pickle.dumps(request, 5)
    assert framed[:3] == pickle.PROTO + b"\x05" + pickle.FRAME
    assert codec.encode(request) == framed[11:]
    assert codec.decode(framed) == codec.decode(framed[11:]) == request
    assert codec.decode(codec.encode(7)) == 7  # too short for a frame: sent as pickled


def test_a_reply_of_several_frames_is_sent_framed_and_decodes():
    """Past 64 KiB pickle writes several frames; such a body travels as it is."""
    codec = PickleSerializer()
    reply = make_reply("c1", result=[proposal(i) for i in range(1000)])
    body = codec.encode(reply)
    assert len(body) > 1 << 16 and body[:3] == pickle.PROTO + b"\x05" + pickle.FRAME
    assert int.from_bytes(body[3:11], "little") < len(body) - 11  # the first of several
    assert body == pickle.dumps(reply, 5)
    assert codec.decode(body) == reply


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


def _by_class_name(cls, state) -> bytes:
    """*cls* pickled by name with *state* for BUILD, as a peer sends it."""
    return (
        b"\x80\x04\x8c\x11repro.sync.models" + pickle.dumps(cls.__name__, 3)[2:-1]
        + b"\x93)\x81" + pickle.dumps(state, 3)[2:-1] + b"b."
    )


def _slotted_peer_body(dto) -> bytes:
    """*dto* pickled by class name with its values in field order, as a peer
    with slotted DTOs and no class codes sends it."""
    out = io.BytesIO()
    peer = pickle.Pickler(out, 4)
    peer.dispatch_table = {}  # no copyreg reducers: every DTO by class name
    peer.dump(dto)
    return out.getvalue()


def test_item_pickled_by_class_name_with_hex_digests_decodes_to_bytes():
    """A peer whose DTOs had a ``__dict__`` sends the fields by name, digests in
    hex: they go through the constructor, never zipped with the field names."""
    item = proposal(0)
    state = {**item.to_wire(), "checksum": item.checksum.hex(),
             "chunks": [chunk.hex() for chunk in item.chunks]}
    assert PickleSerializer().decode(_by_class_name(ItemMetadata, state)) == item
    mixed = {**state, "chunks": (b"\x01" * 20, b"\x02" * 32)}
    with pytest.raises(SerializationError, match="one non-zero width"):
        PickleSerializer().decode(_by_class_name(ItemMetadata, mixed))


def test_body_pickled_by_class_name_from_a_slotted_peer_decodes():
    """A peer without the class codes but with these slotted DTOs sends each
    one's values in field order."""
    body = _slotted_peer_body({"method": "m", "args": [Workspace("ws", "alice"), proposal(0)]})
    assert b"ItemMetadata" in body
    assert PickleSerializer().decode(body)["args"] == [Workspace("ws", "alice"), proposal(0)]


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


def _body(code: int, values: tuple) -> bytes:
    """What a peer would send under *code*: pickled by hand, because the
    encoder itself can never produce a malformed layout."""
    return (
        pickle.PROTO + b"\x05" + pickle.EXT1 + bytes([code])
        + pickle.dumps(values, 5)[2:-1]  # strip PROTO 5 and STOP
        + pickle.REDUCE + pickle.STOP
    )


def _crafted(**changed):
    """The body of ``proposal(0)`` with some wire values replaced."""
    layout = ("workspace_id", "filename", "version", "status", "is_folder", "size",
              "checksum", "chunks", "modified_at", "device_id")
    values = dict(zip(layout, copyreg.dispatch_table[ItemMetadata](proposal(0))[1]))
    assert set(changed) <= set(values)
    values.update(changed)
    return _body(250, tuple(values.values()))


def _recoded(dto, old: int, new: int) -> bytes:
    body = PickleSerializer().encode(dto)
    assert body.count(pickle.EXT1 + bytes([old])) == 1
    return body.replace(pickle.EXT1 + bytes([old]), pickle.EXT1 + bytes([new]))


#: name -> (body, what the refusal says).  Also delivered to a live skeleton
#: by ``tests/objectmq/test_wire_boundary.py``.
CRAFTED = {
    "blob-not-20n": (_crafted(chunks=b"\x01" * 30), "do not hold digests"),
    "checksum-not-hex": (_crafted(checksum="c0ffee-beef"), "non-hexadecimal"),
    "chunks-tuple-of-str": (_crafted(chunks=("zz",)), "non-hexadecimal"),
    "chunks-tuple-of-int": (_crafted(chunks=(1,)), "must be str, not int"),
    "chunks-of-two-widths": (
        _crafted(chunks=(b"\x01" * 20, b"\x02" * 32)), "one non-zero width"
    ),
    "chunk-of-no-bytes": (_crafted(chunks=(b"",)), "one non-zero width"),
    "checksum-left-out-beside-2-chunks": (
        _crafted(checksum=None, chunks=b"\x01" * 40), "checksum left out beside 2 chunks"
    ),
    "request-of-8-fields": (
        _body(251, ("total", [], None, None, None, None, None, "extra")),
        "from 2 to 7 positional arguments",
    ),
    "reply-of-6-fields": (_body(247, ("c1", 1, None, "", 2, "extra")), "positional argument"),
    "request-id-of-8-bytes": (
        _body(249, (WORKSPACE, DEVICE, [], 1_400_000_002.5, b"\x01" * 8)),
        "request id of 8 bytes",
    ),
    "status-code-7": (_crafted(status=7), "out of range"),
    "size-2**63": (_crafted(size=2**63), "fits no record"),
    "status-spelled-out": (_crafted(status="CHANGED"), "indices must be integers"),
    "version-0": (_crafted(version=0), "version numbers start at 1"),
    "retired-code-241": (_recoded(proposal(0), 250, 241), "unregistered extension code 241"),
    "retired-code-243": (_recoded(DTOS[3], 249, 243), "unregistered extension code 243"),
    "retired-code-244": (_recoded(proposal(0), 250, 244), "unregistered extension code 244"),
    "retired-code-245": (_recoded(DTOS[3], 249, 245), "unregistered extension code 245"),
    "retired-code-248": (_recoded(proposal(0), 250, 248), "unregistered extension code 248"),
    "retired-code-246": (
        _recoded(commit_request([proposal(0)]), 251, 246), "unregistered extension code 246"
    ),
    "method-code-10": (_body(251, (10, [])), "method code 10 is not in the method table"),
    "method-code--1": (_body(251, (-1, [])), "method code -1 is not in the method table"),
    "method-code-True": (_body(251, (True, [])), "method code True is not in the method table"),
    "method-code-1.0": (_body(251, (1.0, [])), "method code 1.0 is not in the method table"),
    "code-nobody-registered": (
        pickle.PROTO + b"\x05" + pickle.EXT1 + bytes([255]) + b")R.",
        "unregistered extension code 255",
    ),
    "os-system": (
        pickle.dumps({"method": "m", "args": [_Exploit()]}),
        "not a registered wire type",
    ),
}


def test_crafted_positional_item_fails_validation():
    """Decoding ends in ``cls(...)``, so ``__post_init__`` runs."""
    assert PickleSerializer().decode(_crafted()) == proposal(0)
    assert PickleSerializer().decode(_crafted(status=0, version=9)) == dataclasses.replace(
        proposal(0), status="NEW", version=9
    )
    assert PickleSerializer().decode(
        _body(249, (WORKSPACE, DEVICE, [], 2.5, bytes.fromhex(REQUEST_ID)))
    ) == CommitNotification(WORKSPACE, DEVICE, [], 2.5, REQUEST_ID)
    for name in ("version-0", "status-code-7"):
        with pytest.raises(SerializationError):
            PickleSerializer().decode(CRAFTED[name][0])


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_body_is_refused(name):
    body, why = CRAFTED[name]
    with pytest.raises(SerializationError, match=why):
        PickleSerializer().decode(body)


def _as_peers_send(tag, cls, wire):
    """``(codec, body)`` for each way a peer sends a *cls* of fields *wire*,
    besides pickle's packed layouts.  The json and binary bodies come from a
    peer registry whose *tag* lowers to *wire* as it stands: a plain dict
    holding the tag key would be escaped, not sent as a tagged one."""
    class Peer:
        pass

    peer = WireRegistry()
    peer.register(Peer, tag, lambda _obj: wire, None)
    return [(PickleSerializer(), _by_class_name(cls, wire)),
            (JsonSerializer(), JsonSerializer(peer).encode(Peer())),
            (BinarySerializer(), BinarySerializer(peer).encode(Peer()))]


def test_an_item_id_that_disagrees_is_refused_on_every_decode_path():
    item, renamed = proposal(0), f"{WORKSPACE}:renamed.dat"
    with pytest.raises(ValueError, match="is not its workspace and path"):
        ItemMetadata(**item.to_wire(), item_id=renamed)
    values = copyreg.dispatch_table[ItemMetadata](item)[1]
    with pytest.raises(SerializationError, match="positional argument"):
        PickleSerializer().decode(_body(250, (*values, renamed)))
    agreeing = {**item.to_wire(), "item_id": item.item_id}
    for codec, body in _as_peers_send("stacksync.ItemMetadata", ItemMetadata, agreeing):
        assert codec.decode(body) == item
    dissenting = {**agreeing, "item_id": renamed}
    for codec, body in _as_peers_send("stacksync.ItemMetadata", ItemMetadata, dissenting):
        with pytest.raises((SerializationError, ValueError),
                           match="is not its workspace and path"):
            codec.decode(body)


def test_a_workspace_id_holding_a_colon_is_refused_on_every_decode_path():
    wire = {"workspace_id": "team:0", "owner": "alice", "name": ""}
    bodies = [(PickleSerializer(), _body(240, tuple(wire.values())))]
    for codec, body in bodies + _as_peers_send("stacksync.Workspace", Workspace, wire):
        with pytest.raises((SerializationError, ValueError), match="holds ':'"):
            codec.decode(body)


# -- the packed layout round-trips anything -------------------------------------

_HEX = "0123456789abcdef"


def _digests_of_width(width, counts=st.sampled_from([0, 1, 3])):
    """A chunk list of one width, each digest as bytes or as its hex."""
    digest = st.binary(min_size=width, max_size=width)
    given = st.one_of(digest, digest.map(bytes.hex), digest.map(lambda raw: raw.hex().upper()))
    return counts.flatmap(lambda count: st.lists(given, min_size=count, max_size=count))


_chunk_lists = st.one_of(
    _digests_of_width(20), _digests_of_width(32),
    st.integers(1, 40).flatmap(lambda width: _digests_of_width(width, st.integers(0, 4))),
)
_checksum = st.one_of(
    st.just(b""), st.binary(min_size=20, max_size=20), st.binary(min_size=32, max_size=32),
    st.binary(max_size=40), st.binary(max_size=40).map(bytes.hex),
)
_name = st.text("abc:/. é", min_size=0, max_size=12)


@st.composite
def _items(draw):
    """0, 1 or 3 chunks of 20 or 32 bytes (or 0 to 4 of any width); one chunk
    is often also the checksum, as in a file of one, and a checksum may be
    empty."""
    workspace_id, filename = draw(_name), draw(_name)
    chunks = draw(_chunk_lists)
    checksum = _checksum if len(chunks) != 1 else st.one_of(_checksum, st.just(chunks[0]))
    return ItemMetadata(
        item_id=draw(st.sampled_from([None, make_item_id(workspace_id, filename)])),
        workspace_id=workspace_id,
        version=draw(st.integers(1, 2**40)),
        filename=filename,
        status=draw(st.sampled_from(VALID_STATUSES)),
        is_folder=draw(st.booleans()),
        size=draw(st.integers(0, 2**40)),
        checksum=draw(checksum),
        chunks=chunks,
        modified_at=draw(st.floats(0, 2e9)),
        device_id=draw(_name),
    )


_notifications = st.builds(
    CommitNotification,
    workspace_id=_name,
    source_device=_name,
    results=st.lists(
        st.one_of(
            st.builds(CommitResult, metadata=_items(), confirmed=st.just(True)),
            st.builds(CommitResult, metadata=_items(), confirmed=st.booleans(),
                      current=st.none() | _items()),
        ),
        max_size=3,
    ),
    committed_at=st.floats(0, 2e9),
    request_id=st.one_of(
        st.text(_HEX, min_size=32, max_size=32),
        st.text(_HEX.upper(), min_size=32, max_size=32),
        st.text(_HEX, max_size=40),
        st.just("req-1"),
    ),
)


@settings(max_examples=150, deadline=None)
@given(dto=st.one_of(_items(), _notifications))
def test_any_item_and_notification_round_trips(dto):
    """Each codec, deepcopy and replace; and for an item, both class-name peer
    forms and the version history of every engine, where an older version is
    stored in the engine's own form."""
    for codec in (PickleSerializer(), JsonSerializer(), BinarySerializer()):
        assert codec.decode(codec.encode(dto)) == dto
    assert copy.deepcopy(dto) == dto
    assert dataclasses.replace(dto, workspace_id="other").workspace_id == "other"
    assert dataclasses.replace(dto) == dto
    if dto.__class__ is not ItemMetadata:
        return
    by_name = {**dto.to_wire(), "item_id": dto.item_id}
    for body in (_by_class_name(ItemMetadata, by_name), _slotted_peer_body(dto)):
        assert PickleSerializer().decode(body) == dto
    older = dataclasses.replace(dto, workspace_id="ws", version=1)
    newer = dataclasses.replace(older, version=2, chunks=older.chunks[::-1])
    for kind in ("memory", "sqlite", "sharded", "sharded-sqlite"):
        engine = make_metadata_backend(kind)
        try:
            engine.create_user("alice")
            engine.create_workspace(Workspace(workspace_id="ws", owner="alice"))
            assert engine.store_versions_bulk([older, newer]) == [(True, None)] * 2
            assert engine.item_history(older.item_id) == [older, newer], kind
        finally:
            engine.close()


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _name, st.binary(max_size=8))
_values = st.one_of(_scalars, _items(), st.lists(_scalars, max_size=3))
_requests = st.fixed_dictionaries(
    {"method": _name, "args": st.lists(_values, max_size=3)},
    optional={
        "kwargs": st.dictionaries(_name, _values, max_size=2),
        "reply_to": _name,
        "correlation_id": st.text(_HEX, min_size=32, max_size=32),
        "context": st.dictionaries(_name, _scalars, max_size=2),
        TRACE_KEY: st.fixed_dictionaries({"trace_id": _name, "span_id": _name}),
    },
).map(Request)
_replies = st.builds(
    make_reply,
    correlation_id=st.text(_HEX, min_size=32, max_size=32),
    result=_values,
    error=st.none() | _name,
    responder=st.just("") | _name,
    reached=st.just(0) | st.integers(1, 64),
)


@settings(max_examples=150, deadline=None)
@given(envelope=st.one_of(_requests, _replies))
def test_any_envelope_round_trips(envelope):
    """Any subset of a request's optional fields, an ok reply and an error one."""
    for codec in (PickleSerializer(), JsonSerializer(), BinarySerializer()):
        assert codec.decode(codec.encode(envelope)) == envelope
    assert type(PickleSerializer().decode(PickleSerializer().encode(envelope))) is type(envelope)


def test_canonical_digests_travel_packed_and_anything_else_literally():
    """SHA-1 chunk digests travel as one blob; chunks of any other width travel
    as the tuple, so 32-byte (SHA-256) digests are never cut at 20, and a
    peer's tuple is refused unless its digests share one width."""
    packed = copyreg.dispatch_table[ItemMetadata]
    sha1, sha256 = sha1_fingerprint(b"x"), hashlib.sha256(b"x").digest()
    for checksum, chunks, wire_checksum, wire_chunks in (
        (sha256, (sha1, sha1), sha256, sha1 * 2),
        (sha256, (sha256, sha256), sha256, (sha256, sha256)),
        (sha256, (sha1[:19], sha256[:19]), sha256, (sha1[:19], sha256[:19])),
        (sha256, (), sha256, ()),
        (sha256, (sha1,), sha256, sha1),
        (sha1, (sha1,), None, sha1),
        (sha256, (sha256,), None, (sha256,)),
    ):
        item = dataclasses.replace(proposal(0), checksum=checksum, chunks=chunks)
        values = packed(item)[1]
        assert (values[6], values[7]) == (wire_checksum, wire_chunks)
        assert values[3] == VALID_STATUSES.index(item.status) and len(values) == 10
        assert PickleSerializer().decode(PickleSerializer().encode(item)) == item
    with pytest.raises(ValueError, match="one non-zero width"):
        dataclasses.replace(proposal(0), chunks=(sha1, sha256))  # one blob, one width


# -- identity within a message ------------------------------------------------------


class _Fanout:
    """The broker surface ``SyncService`` notifies through, keeping what it sends."""

    def __init__(self):
        self.sent = []

    def multicast_has_listeners(self, oid):
        return True

    def lookup(self, oid, interface):
        return self

    def notify_commit(self, notification):
        self.sent.append(notification)


def test_decoded_commit_request_notifies_at_the_pinned_size():
    """Pickle's memo shortens a repeated string only if it is one object.  The
    decoded items hold their ids interned, so the service interns the ids it is
    called with, or the notification names the workspace and device twice."""
    metadata, fanout = MemoryMetadataBackend(), _Fanout()
    metadata.create_user("alice")
    metadata.create_workspace(Workspace(workspace_id=WORKSPACE, owner="alice"))
    metadata.store_versions_bulk([dataclasses.replace(proposal(0), version=1, status="NEW")])
    codec, service = PickleSerializer(), SyncService(metadata, fanout)
    for version in (2, 3):  # the second decode finds the ids interned already
        item = dataclasses.replace(proposal(0), version=version)
        request = codec.decode(codec.encode(commit_request([item])))
        service.commit_request(*request["args"], **request["kwargs"])
        notification = fanout.sent[-1]
        assert notification.results[0].confirmed
        sent = make_request("notify_commit", [notification], {}, call="async", multi=True)
        assert len(codec.encode(sent)) == len(codec.encode(notify_commit([item]))) == 186
