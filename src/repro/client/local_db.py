"""The client's local database (§4.1).

"Every desktop client has a local database ... The local database maps the
fingerprints to the corresponding files."  It holds, per synced item, the
last server-acknowledged version and the one proposed, plus the per-user
deduplication index (every fingerprint this user has ever stored) and a
chunk cache with the payloads needed to reconstruct remote changes.  An
item's chunks, checksum and size are the server's to keep: nothing here
reads them back.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Set


@dataclass
class LocalFileRecord:
    """What the client knows about one synced item."""

    item_id: str
    path: str
    version: int
    #: Version currently proposed to the server but not yet confirmed.
    pending_version: Optional[int] = None


class LocalDatabase:
    """Thread-safe client-side metadata + dedup index + chunk cache."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._files: Dict[str, LocalFileRecord] = {}  # item_id -> record
        self._by_path: Dict[str, str] = {}  # path -> item_id
        self._fingerprints: Set[bytes] = set()  # per-user dedup index
        self._chunk_cache: Dict[bytes, bytes] = {}  # fingerprint -> compressed payload

    # -- file records -----------------------------------------------------------

    def get(self, item_id: str) -> Optional[LocalFileRecord]:
        with self._lock:
            return self._files.get(item_id)

    def get_by_path(self, path: str) -> Optional[LocalFileRecord]:
        with self._lock:
            item_id = self._by_path.get(path)
            return self._files.get(item_id) if item_id else None

    def upsert(self, record: LocalFileRecord) -> None:
        with self._lock:
            self._files[record.item_id] = record
            self._by_path[record.path] = record.item_id

    def remove(self, item_id: str) -> None:
        with self._lock:
            record = self._files.pop(item_id, None)
            if record is not None and self._by_path.get(record.path) == item_id:
                del self._by_path[record.path]

    # -- dedup index ----------------------------------------------------------------

    def knows_fingerprint(self, fingerprint: bytes) -> bool:
        with self._lock:
            return fingerprint in self._fingerprints

    def remember_fingerprints(self, fingerprints) -> None:
        with self._lock:
            self._fingerprints.update(fingerprints)

    # -- chunk cache ------------------------------------------------------------------

    def cache_chunk(self, fingerprint: bytes, payload: bytes) -> None:
        with self._lock:
            self._chunk_cache[fingerprint] = payload
            self._fingerprints.add(fingerprint)

    def cached_chunk(self, fingerprint: bytes) -> Optional[bytes]:
        with self._lock:
            return self._chunk_cache.get(fingerprint)
