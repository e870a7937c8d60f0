"""Domain model of the StackSync protocol (§4, Fig 6, Algorithm 1).

These are the DTOs crossing the ObjectMQ boundary between clients and the
SyncService: item metadata proposals, commit notifications, and workspace
descriptors.  Each registers once with the serialization wire registry
(bottom of this module), which is what lets any codec carry it: a tag for
JSON and binary; a code and the field order, or a packed layout, for pickle.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field, fields
from operator import attrgetter
from sys import intern
from typing import List, Optional, Tuple

from repro.serialization.base import global_wire_registry

#: Item lifecycle states carried in commit proposals.
STATUS_NEW = "NEW"
STATUS_CHANGED = "CHANGED"
STATUS_DELETED = "DELETED"

VALID_STATUSES = (STATUS_NEW, STATUS_CHANGED, STATUS_DELETED)

#: Bytes in the paper's default fingerprint, a SHA-1 digest (§4.1).
DIGEST_SIZE = 20

#: The first 18 bytes of an item's ``record`` (see :class:`ItemMetadata`).
RECORD_HEAD = struct.Struct("<B?qd")


def make_item_id(workspace_id: str, path: str) -> str:
    """Stable item identity shared by every device syncing the workspace."""
    return f"{workspace_id}:{path}"


def _fields_of(dto) -> dict:
    """``to_wire`` of a flat DTO: its fields by name."""
    return {name: getattr(dto, name) for name in dto.__slots__}


def _set_state(dto, state) -> None:
    """``__setstate__`` of a DTO pickled by class name: its values in field order,
    or by name from a peer whose DTOs had a ``__dict__``, go through the
    constructor."""
    if state.__class__ is not dict:
        state = zip([f.name for f in fields(dto)], state)
    dto.__init__(**dict(state))


def _joined(chunks) -> Tuple[int, bytes]:
    """*chunks*, each a digest's bytes or hex, as their one width (0 for none)
    and the digests end to end."""
    digests = [c if c.__class__ is bytes else bytes.fromhex(c) for c in chunks]
    widths = set(map(len, digests))
    if len(widths) > 1 or 0 in widths:
        raise ValueError("chunk digests must share one non-zero width")
    return (widths.pop() if widths else 0), b"".join(digests)


@dataclass(frozen=True, slots=True)
class Workspace:
    """A synced folder: the unit of sharing and of change notification."""

    workspace_id: str
    owner: str
    name: str = ""

    def __post_init__(self) -> None:
        if ":" in self.workspace_id:
            raise ValueError(
                f"workspace id {self.workspace_id!r} holds ':', which ends it in an item id"
            )

    to_wire = _fields_of
    __setstate__ = _set_state

    @classmethod
    def from_wire(cls, data: dict) -> "Workspace":
        return cls(**data)


class _ItemSlots:
    """An :class:`ItemMetadata`'s six slots; its other fields read ``record``."""

    __slots__ = ("workspace_id", "version", "filename", "record", "device_id", "item_id")

    status = property(lambda self: VALID_STATUSES[self.record[0]])
    is_folder = property(lambda self: bool(self.record[1]))
    size = property(lambda self: RECORD_HEAD.unpack_from(self.record)[2])
    modified_at = property(lambda self: RECORD_HEAD.unpack_from(self.record)[3])
    checksum = property(lambda self: self.record[20:20 + self.record[18]])

    @property
    def chunks(self) -> Tuple[bytes, ...]:
        record = self.record
        width, start = record[19], 20 + record[18]
        if start == len(record):  # no digests: no chunks, or the checksum alone
            return (record[20:],) if width else ()
        return tuple([record[i:i + width] for i in range(start, len(record), width)])


#: What an item stores: its ``item_id`` is derived from the workspace and filename.
_stored = attrgetter("workspace_id", "version", "filename", "record", "device_id")


def item_record(status, is_folder, size, modified_at, checksum, width, digests) -> bytes:
    """An :class:`ItemMetadata`'s checked ``record``; *digests* are its chunks end to end."""
    if checksum.__class__ is not bytes:
        checksum = bytes.fromhex(checksum)
    if status not in VALID_STATUSES:
        raise ValueError(f"invalid status {status!r}")
    if digests == checksum and len(digests) == width:
        digests = b""  # the checksum is the sole chunk
    try:
        head = RECORD_HEAD.pack(VALID_STATUSES.index(status), is_folder, size, modified_at)
    except struct.error:
        raise ValueError(f"size {size!r} or modified_at {modified_at!r} fits no record") from None
    return head + bytes((len(checksum), width)) + checksum + digests


@dataclass(frozen=True, init=False)
class ItemMetadata(_ItemSlots):
    """One version of one item (file or folder) in a workspace.

    ``version`` is the server-side monotonically increasing version
    number; a client proposing a change sends ``current version + 1``.
    ``checksum`` and ``chunks`` (the file's fingerprints, in order) are given
    as bytes or hex, the chunks all of one width, and read back as bytes and
    a tuple of bytes.  An item keeps the other fields in one bytes ``record``:
    :data:`RECORD_HEAD` (the status's index in :data:`VALID_STATUSES`,
    ``is_folder``, ``size`` as a signed 64-bit integer, ``modified_at`` as a
    double), the checksum's length and the chunks' width (0 for none) in a byte
    each, the checksum, then the chunk digests end to end, or none when the
    checksum is the sole chunk, as in every single-chunk file.  An item the
    record cannot hold is refused when it is built.  ``item_id`` is
    :func:`make_item_id` of the workspace and filename, derived and interned here
    (an id given that differs is refused), so stored versions share it.  A
    rename or a move is a delete and an add: another item.
    """

    __slots__ = ()

    workspace_id: str
    version: int
    filename: str
    status: str = field()  # field(): no default, though _ItemSlots reads these six
    is_folder: bool = field()
    size: int = field()
    checksum: bytes = field()
    chunks: Tuple[bytes, ...] = field()
    modified_at: float = field()
    device_id: str
    item_id: str = field(init=False)

    def __init__(
        self, workspace_id: str, version: int, filename: str,
        status: str = STATUS_NEW, is_folder: bool = False, size: int = 0,
        checksum: bytes = b"", chunks: Tuple[bytes, ...] = (),
        modified_at: float = 0.0, device_id: str = "", item_id: Optional[str] = None,
    ) -> None:
        record = item_record(status, is_folder, size, modified_at, checksum, *_joined(chunks))
        self._assign(workspace_id, version, filename, record, device_id, item_id)

    def _assign(self, workspace_id, version, filename, record, device_id, item_id=None):
        derived = intern(make_item_id(workspace_id, filename))
        if item_id is not None and item_id != derived:
            raise ValueError(f"item id {item_id!r} is not its workspace and path")
        if version < 1:
            raise ValueError("version numbers start at 1")
        assign = object.__setattr__
        assign(self, "workspace_id", workspace_id)
        assign(self, "version", version)
        assign(self, "filename", filename)
        assign(self, "record", record)
        assign(self, "device_id", device_id)
        assign(self, "item_id", derived)
        return self

    @classmethod
    def from_record(cls, workspace_id, version, filename, record, device_id) -> "ItemMetadata":
        """An item of its slots, *record* made by :func:`item_record`."""
        return object.__new__(cls)._assign(workspace_id, version, filename, record, device_id)

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return _stored(self) == _stored(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(_stored(self))

    __setstate__ = _set_state

    def __getstate__(self) -> list:
        """The values in field order, as a slotted dataclass pickles them."""
        return [getattr(self, f.name) for f in fields(self)]

    def __repr__(self) -> str:
        digests = " ".join(digest.hex() for digest in (self.checksum, *self.chunks))
        return f"ItemMetadata({self.item_id!r} v{self.version} {self.status} {digests})"

    def to_wire(self) -> dict:
        """The fields by name, but not ``item_id``: the receiver derives it."""
        return {name: getattr(self, name) for name in self.__match_args__}

    @classmethod
    def from_wire(cls, data: dict) -> "ItemMetadata":
        return cls(**data)


@dataclass(frozen=True, slots=True)
class CommitResult:
    """Per-item outcome inside a CommitNotification (Algorithm 1).

    When ``confirmed`` is False, ``current`` piggybacks the winning
    server-side version so the losing client can diff chunk lists and
    reconstruct the up-to-date file without another round trip.
    """

    metadata: ItemMetadata
    confirmed: bool
    current: Optional[ItemMetadata] = None

    __setstate__ = _set_state

    def to_wire(self) -> dict:
        current = self.current and self.current.to_wire()
        return {**_fields_of(self), "metadata": self.metadata.to_wire(), "current": current}

    @classmethod
    def from_wire(cls, data: dict) -> "CommitResult":
        current = data.get("current")
        return cls(_as(ItemMetadata, data["metadata"]), data["confirmed"],
                   current and _as(ItemMetadata, current))


@dataclass(frozen=True, slots=True)
class CommitNotification:
    """The multicast payload of ``notifyCommit`` (one per commitRequest).

    Immutable, ``results`` included (a list given is kept as a tuple): a
    receiving Broker decodes a notification once and hands the same object
    to every listener it hosts.
    """

    workspace_id: str
    source_device: str
    results: Tuple[CommitResult, ...] = ()
    committed_at: float = field(default_factory=time.time)
    request_id: str = ""

    __setstate__ = _set_state

    def __post_init__(self) -> None:
        if self.results.__class__ is not tuple:
            object.__setattr__(self, "results", tuple(self.results))

    @property
    def confirmed(self) -> List[CommitResult]:
        return [r for r in self.results if r.confirmed]

    @property
    def conflicts(self) -> List[CommitResult]:
        return [r for r in self.results if not r.confirmed]

    def to_wire(self) -> dict:
        return {**_fields_of(self), "results": [r.to_wire() for r in self.results]}

    @classmethod
    def from_wire(cls, data: dict) -> "CommitNotification":
        return cls(**{**data, "results": tuple([_as(CommitResult, r) for r in data["results"]])})


def _as(cls, data):
    """*data* as a *cls*: json and binary raise a nested DTO first, or not."""
    return data if isinstance(data, cls) else cls.from_wire(data)


# -- packed pickle layouts (what ``register(pack=, unpack=)`` is given) -----------


def pack_item(item: ItemMetadata) -> tuple:
    """``(unpack_item, values)``, field by field: ``workspace_id``, ``filename``,
    ``version``, ``status`` as its index in :data:`VALID_STATUSES`,
    ``is_folder``, ``size``, ``checksum`` (None when it is the item's only
    chunk, as in every single-chunk file: both digest the same bytes),
    ``chunks`` as one blob when each is :data:`DIGEST_SIZE` bytes (else the
    tuple), ``modified_at`` and ``device_id``.  ``item_id`` is derived."""
    record = item.record
    status, is_folder, size, modified_at = RECORD_HEAD.unpack_from(record)
    end = 20 + record[18]
    checksum, chunks = record[20:end], record[end:]
    if record[19] and not chunks:
        checksum, chunks = None, checksum
    if record[19] != DIGEST_SIZE:
        chunks = item.chunks
    return unpack_item, (
        item.workspace_id, item.filename, item.version, status, is_folder, size,
        checksum, chunks, modified_at, item.device_id,
    )


def unpack_item(
    workspace_id, filename, version, status, is_folder, size, checksum, chunks,
    modified_at, device_id,
) -> ItemMetadata:
    if chunks.__class__ is bytes:
        if len(chunks) % DIGEST_SIZE:
            raise ValueError(f"{len(chunks)} bytes do not hold digests of {DIGEST_SIZE}")
        width = DIGEST_SIZE if chunks else 0
    else:
        width, chunks = _joined(chunks)
    if checksum is None:
        if not width or len(chunks) != width:
            raise ValueError(f"a checksum left out beside {len(chunks) // (width or 1)} chunks")
        checksum = chunks
    record = item_record(VALID_STATUSES[status], is_folder, size, modified_at, checksum,
                         width, chunks)
    return ItemMetadata.from_record(intern(workspace_id), version, intern(filename), record,
                                    intern(device_id))


def pack_notification(msg: CommitNotification) -> tuple:
    """``(unpack_notification, values)``: the fields in order, ``request_id`` (a
    ``uuid4().hex``) as 16 bytes, and a confirmed result with no ``current`` as
    just its item."""
    request_id = msg.request_id
    if len(request_id) == 32 and not request_id.strip("0123456789abcdef"):
        request_id = bytes.fromhex(request_id)
    results = [
        result.metadata if result.confirmed and result.current is None else result
        for result in msg.results
    ]
    return unpack_notification, (
        msg.workspace_id, msg.source_device, results, msg.committed_at, request_id
    )


def unpack_notification(workspace_id, source_device, results, committed_at, request_id):
    if request_id.__class__ is bytes:
        if len(request_id) != 16:
            raise ValueError(f"a request id of {len(request_id)} bytes")
        request_id = request_id.hex()
    results = tuple([
        CommitResult(result, True) if result.__class__ is ItemMetadata else result
        for result in results
    ])
    return CommitNotification(
        workspace_id, source_device, results, committed_at, request_id
    )


# Register each DTO once: the tag json/binary spell it with and the code pickle
# does (the class's, then its field values in the order declared above; or its
# unpack function's, then the packed layout).  All of it is wire format — never
# renumber, reorder or reuse.  Retired: 241 and 243 (the unpacked layouts), 244
# (an item that always sent its checksum), 245 (a notification that always sent
# each CommitResult whole), 248 (an item with a slot for its id).  246 and 247
# are the envelopes (repro.objectmq).
global_wire_registry.register(
    Workspace, "stacksync.Workspace", Workspace.to_wire, Workspace.from_wire, code=240
)
global_wire_registry.register(
    ItemMetadata, "stacksync.ItemMetadata", ItemMetadata.to_wire,
    ItemMetadata.from_wire, code=250, pack=pack_item, unpack=unpack_item,
)
global_wire_registry.register(
    CommitResult, "stacksync.CommitResult", CommitResult.to_wire,
    CommitResult.from_wire, code=242,
)
global_wire_registry.register(
    CommitNotification, "stacksync.CommitNotification", CommitNotification.to_wire,
    CommitNotification.from_wire, code=249, pack=pack_notification,
    unpack=unpack_notification,
)
