"""Domain model of the StackSync protocol (§4, Fig 6, Algorithm 1).

These are the DTOs crossing the ObjectMQ boundary between clients and the
SyncService: item metadata proposals, commit notifications, and workspace
descriptors.  Each registers once with the serialization wire registry
(bottom of this module), which is what lets any codec carry it: a tag for
JSON and binary; a code and the field order, or a packed layout, for pickle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.serialization.base import global_wire_registry

#: Item lifecycle states carried in commit proposals.
STATUS_NEW = "NEW"
STATUS_CHANGED = "CHANGED"
STATUS_DELETED = "DELETED"

VALID_STATUSES = (STATUS_NEW, STATUS_CHANGED, STATUS_DELETED)


def make_item_id(workspace_id: str, path: str) -> str:
    """Stable item identity shared by every device syncing the workspace."""
    return f"{workspace_id}:{path}"


@dataclass(frozen=True)
class Workspace:
    """A synced folder: the unit of sharing and of change notification."""

    workspace_id: str
    owner: str
    name: str = ""

    def to_wire(self) -> dict:
        return {
            "workspace_id": self.workspace_id,
            "owner": self.owner,
            "name": self.name,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "Workspace":
        return cls(**data)


@dataclass(frozen=True)
class ItemMetadata:
    """One version of one item (file or folder) in a workspace.

    ``version`` is the server-side monotonically increasing version
    number; a client proposing a change sends ``current version + 1``.
    ``chunks`` lists the SHA-1 fingerprints (hex) composing the file, in
    order — the Storage back-end is addressed purely by fingerprint.
    """

    item_id: str
    workspace_id: str
    version: int
    filename: str
    status: str = STATUS_NEW
    is_folder: bool = False
    size: int = 0
    checksum: str = ""
    chunks: List[str] = field(default_factory=list)
    modified_at: float = 0.0
    device_id: str = ""

    def __post_init__(self) -> None:
        if self.status not in VALID_STATUSES:
            raise ValueError(f"invalid status {self.status!r}")
        if self.version < 1:
            raise ValueError("version numbers start at 1")

    def with_version(self, version: int, status: Optional[str] = None) -> "ItemMetadata":
        return replace(self, version=version, status=status or self.status)

    def to_wire(self) -> dict:
        return {
            "item_id": self.item_id,
            "workspace_id": self.workspace_id,
            "version": self.version,
            "filename": self.filename,
            "status": self.status,
            "is_folder": self.is_folder,
            "size": self.size,
            "checksum": self.checksum,
            "chunks": list(self.chunks),
            "modified_at": self.modified_at,
            "device_id": self.device_id,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "ItemMetadata":
        return cls(**data)


@dataclass(frozen=True)
class CommitResult:
    """Per-item outcome inside a CommitNotification (Algorithm 1).

    When ``confirmed`` is False, ``current`` piggybacks the winning
    server-side version so the losing client can diff chunk lists and
    reconstruct the up-to-date file without another round trip.
    """

    metadata: ItemMetadata
    confirmed: bool
    current: Optional[ItemMetadata] = None

    def to_wire(self) -> dict:
        return {
            "metadata": self.metadata.to_wire(),
            "confirmed": self.confirmed,
            "current": self.current.to_wire() if self.current else None,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "CommitResult":
        return cls(
            metadata=_as_item(data["metadata"]),
            confirmed=data["confirmed"],
            current=_as_item(data["current"]) if data.get("current") else None,
        )


@dataclass(frozen=True)
class CommitNotification:
    """The multicast payload of ``notifyCommit`` (one per commitRequest)."""

    workspace_id: str
    source_device: str
    results: List[CommitResult] = field(default_factory=list)
    committed_at: float = field(default_factory=time.time)
    request_id: str = ""

    @property
    def confirmed(self) -> List[CommitResult]:
        return [r for r in self.results if r.confirmed]

    @property
    def conflicts(self) -> List[CommitResult]:
        return [r for r in self.results if not r.confirmed]

    def to_wire(self) -> dict:
        return {
            "workspace_id": self.workspace_id,
            "source_device": self.source_device,
            "results": [r.to_wire() for r in self.results],
            "committed_at": self.committed_at,
            "request_id": self.request_id,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "CommitNotification":
        return cls(
            workspace_id=data["workspace_id"],
            source_device=data["source_device"],
            results=[_as_result(r) for r in data["results"]],
            committed_at=data["committed_at"],
            request_id=data.get("request_id", ""),
        )


def _as_item(data) -> ItemMetadata:
    return data if isinstance(data, ItemMetadata) else ItemMetadata.from_wire(data)


def _as_result(data) -> CommitResult:
    return data if isinstance(data, CommitResult) else CommitResult.from_wire(data)


# -- packed pickle layouts (what ``register(pack=, unpack=)`` is given) -----------
def pack_item(item: ItemMetadata) -> tuple:
    """Field by field: ``workspace_id``, ``filename``, ``version``, ``status`` as
    its index in :data:`VALID_STATUSES`, ``is_folder``, ``size``, ``checksum`` as
    20 bytes, ``chunks`` as one blob of 20 bytes each, ``modified_at``, ``device_id``
    and ``item_id`` — None when it is what :func:`make_item_id` would give.  For a
    digest ``bytes`` on the wire is the packed form, ``str`` / ``list`` the literal:
    only lower-case hex of the full width is packed, so "fp1" comes back as it went."""
    workspace_id, filename, item_id = item.workspace_id, item.filename, item.item_id
    checksum, chunks = item.checksum, item.chunks
    try:
        raw = bytes.fromhex(checksum)
        if len(raw) == 20 and raw.hex() == checksum:
            checksum = raw
    except (TypeError, ValueError):
        pass
    try:
        raw = bytes.fromhex("".join(chunks))
        if chunks and not len(raw) % 20 and raw.hex(" ", 20).split() == chunks:
            chunks = raw
    except (TypeError, ValueError):
        pass
    return (
        workspace_id, filename, item.version, VALID_STATUSES.index(item.status),
        item.is_folder, item.size, checksum, chunks, item.modified_at, item.device_id,
        None if item_id == make_item_id(workspace_id, filename) else item_id,
    )


def unpack_item(
    workspace_id, filename, version, status, is_folder, size, checksum, chunks,
    modified_at, device_id, item_id,
) -> ItemMetadata:
    if checksum.__class__ is bytes:
        if len(checksum) != 20:
            raise ValueError(f"a checksum of {len(checksum)} bytes")
        checksum = checksum.hex()
    if chunks.__class__ is bytes:
        if len(chunks) % 20:
            raise ValueError(f"{len(chunks)} bytes do not hold digests of 20")
        chunks = chunks.hex(" ", 20).split()
    return ItemMetadata(
        make_item_id(workspace_id, filename) if item_id is None else item_id,
        workspace_id, version, filename, VALID_STATUSES[status], is_folder, size,
        checksum, chunks, modified_at, device_id,
    )


def pack_notification(msg: CommitNotification) -> tuple:
    """The fields in order, ``request_id`` (a ``uuid4().hex``) as 16 bytes."""
    request_id = msg.request_id
    try:
        raw = bytes.fromhex(request_id)
        if len(raw) == 16 and raw.hex() == request_id:
            request_id = raw
    except (TypeError, ValueError):
        pass
    return msg.workspace_id, msg.source_device, msg.results, msg.committed_at, request_id


def unpack_notification(workspace_id, source_device, results, committed_at, request_id):
    if request_id.__class__ is bytes:
        if len(request_id) != 16:
            raise ValueError(f"a request id of {len(request_id)} bytes")
        request_id = request_id.hex()
    return CommitNotification(
        workspace_id, source_device, results, committed_at, request_id
    )


# Register each DTO once: the tag json/binary spell it with and the code pickle
# does (the class's, then its field values in the order declared above; or its
# unpack function's, then the packed layout).  All of it is wire format — never
# renumber, reorder or reuse: 241 and 243, the unpacked layouts, are retired.
global_wire_registry.register(
    Workspace, "stacksync.Workspace", Workspace.to_wire, Workspace.from_wire, code=240
)
global_wire_registry.register(
    ItemMetadata, "stacksync.ItemMetadata", ItemMetadata.to_wire,
    ItemMetadata.from_wire, code=244, pack=pack_item, unpack=unpack_item,
)
global_wire_registry.register(
    CommitResult, "stacksync.CommitResult", CommitResult.to_wire,
    CommitResult.from_wire, code=242,
)
global_wire_registry.register(
    CommitNotification, "stacksync.CommitNotification", CommitNotification.to_wire,
    CommitNotification.from_wire, code=245, pack=pack_notification,
    unpack=unpack_notification,
)
