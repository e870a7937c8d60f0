"""Domain model of the StackSync protocol (§4, Fig 6, Algorithm 1).

These are the DTOs crossing the ObjectMQ boundary between clients and the
SyncService: item metadata proposals, commit notifications, and workspace
descriptors.  Each registers once with the serialization wire registry
(bottom of this module), which is what lets any codec carry it: a tag for
JSON and binary, a class code and the field order for pickle.
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


# Register each DTO once: the tag json/binary spell it with and the code
# pickle spells it with (class code + field values in the order declared
# above).  Both are wire format — never renumber, reorder or reuse.
global_wire_registry.register(
    Workspace, "stacksync.Workspace", Workspace.to_wire, Workspace.from_wire, code=240
)
global_wire_registry.register(
    ItemMetadata, "stacksync.ItemMetadata", ItemMetadata.to_wire,
    ItemMetadata.from_wire, code=241,
)
global_wire_registry.register(
    CommitResult, "stacksync.CommitResult", CommitResult.to_wire,
    CommitResult.from_wire, code=242,
)
global_wire_registry.register(
    CommitNotification,
    "stacksync.CommitNotification",
    CommitNotification.to_wire,
    CommitNotification.from_wire,
    code=243,
)
