"""The Indexer (§4.1): change detection → chunking → dedup → proposal.

"Every time a change in any workspace is detected by the OS, the Indexer
component will look up the local database to identify the affected
chunks.  Concretely, the Indexer will call the Chunker, which will
partition the modified file into chunks and calculate the hash values for
each chunk.  Then, the Indexer will compare the hashes of the new chunks
with those in the local database.  If some of the chunks already exist,
only the new ones will be uploaded."
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import List

from repro.client.chunker import Chunk, FixedChunker
from repro.client.compression import Compressor, GzipCompressor
from repro.client.local_db import LocalDatabase
from repro.sync.models import (
    STATUS_CHANGED,
    STATUS_DELETED,
    STATUS_NEW,
    ItemMetadata,
)


@dataclass
class IndexResult:
    """Outcome of indexing one file change."""

    proposal: ItemMetadata
    #: Chunks that must be uploaded (not known to this user's dedup index),
    #: already compressed for transmission.
    uploads: List[tuple] = field(default_factory=list)  # (fingerprint, payload)
    #: Fingerprints that were deduplicated away.
    deduplicated: List[bytes] = field(default_factory=list)
    #: Raw (uncompressed) size of the uploads, for traffic accounting.
    upload_raw_bytes: int = 0

    @property
    def upload_bytes(self) -> int:
        return sum(len(payload) for _fp, payload in self.uploads)


class Indexer:
    """Turns detected file changes into commit proposals + upload lists."""

    def __init__(
        self,
        local_db: LocalDatabase,
        chunker=None,
        compressor: Compressor = None,
    ):
        self.local_db = local_db
        self.chunker = chunker if chunker is not None else FixedChunker()
        self.compressor = compressor if compressor is not None else GzipCompressor()

    def index_change(
        self,
        workspace_id: str,
        device_id: str,
        path: str,
        content: bytes,
    ) -> IndexResult:
        """Index an added or modified file.

        Deduplication is strictly per-user (§4.1): only this local
        database's fingerprint index decides whether a chunk is uploaded,
        never another user's data.
        """
        record = self.local_db.get_by_path(path)
        if record is None:
            version = 1
            status = STATUS_NEW
        else:
            base = record.pending_version or record.version
            version = base + 1
            status = STATUS_CHANGED

        chunks: List[Chunk] = self.chunker.chunk(content)
        uploads: List[tuple] = []
        deduplicated: List[bytes] = []
        raw = 0
        seen_in_this_file = set()
        for chunk in chunks:
            if chunk.fingerprint in seen_in_this_file or self.local_db.knows_fingerprint(
                chunk.fingerprint
            ):
                deduplicated.append(chunk.fingerprint)
                continue
            seen_in_this_file.add(chunk.fingerprint)
            payload = self.compressor.compress(chunk.data)
            uploads.append((chunk.fingerprint, payload))
            raw += chunk.size

        proposal = ItemMetadata(
            workspace_id=workspace_id,
            version=version,
            filename=path,
            status=status,
            size=len(content),
            checksum=hashlib.sha1(content).digest(),
            chunks=tuple(c.fingerprint for c in chunks),
            modified_at=time.time(),
            device_id=device_id,
        )
        return IndexResult(
            proposal=proposal,
            uploads=uploads,
            deduplicated=deduplicated,
            upload_raw_bytes=raw,
        )

    def index_delete(
        self, workspace_id: str, device_id: str, path: str
    ) -> IndexResult:
        """Index a removal: a DELETED version with no chunks."""
        record = self.local_db.get_by_path(path)
        base = 0
        if record is not None:
            base = record.pending_version or record.version
        proposal = ItemMetadata(
            workspace_id=workspace_id,
            version=base + 1,
            filename=path,
            status=STATUS_DELETED,
            size=0,
            modified_at=time.time(),
            device_id=device_id,
        )
        return IndexResult(proposal=proposal)
