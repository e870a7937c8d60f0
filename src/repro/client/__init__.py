"""StackSync desktop client (§4.1): watcher, indexer, chunker, local DB."""

from repro.client.chunker import (
    Chunk,
    ContentDefinedChunker,
    DEFAULT_CHUNK_SIZE,
    FixedChunker,
    make_chunker,
)
from repro.client.compression import (
    Bzip2Compressor,
    COMPRESSORS,
    Compressor,
    GzipCompressor,
    NullCompressor,
    make_compressor,
)
from repro.client.fingerprint import (
    FINGERPRINTERS,
    make_fingerprinter,
    sha1_fingerprint,
    sha256_fingerprint,
)
from repro.client.device import StackSyncDevice
from repro.client.fs import DirectoryFilesystem, Filesystem, VirtualFilesystem
from repro.client.indexer import Indexer, IndexResult
from repro.client.local_db import LocalDatabase, LocalFileRecord
from repro.client.sync_client import (
    ClientTrafficStats,
    StackSyncClient,
    conflicted_copy_name,
)
from repro.client.transfer import (
    ChunkTransferManager,
    DEFAULT_POOL_SIZE,
    TransferRecord,
)
from repro.client.watcher import (
    DEFAULT_EXCLUDES,
    EVENT_ADD,
    EVENT_REMOVE,
    EVENT_UPDATE,
    FileEvent,
    PollingWatcher,
)
from repro.sync.models import make_item_id

__all__ = [
    "COMPRESSORS",
    "DEFAULT_EXCLUDES",
    "DEFAULT_CHUNK_SIZE",
    "EVENT_ADD",
    "EVENT_REMOVE",
    "EVENT_UPDATE",
    "FINGERPRINTERS",
    "Bzip2Compressor",
    "Chunk",
    "ChunkTransferManager",
    "ClientTrafficStats",
    "DEFAULT_POOL_SIZE",
    "Compressor",
    "ContentDefinedChunker",
    "DirectoryFilesystem",
    "FileEvent",
    "Filesystem",
    "FixedChunker",
    "GzipCompressor",
    "Indexer",
    "IndexResult",
    "LocalDatabase",
    "LocalFileRecord",
    "NullCompressor",
    "PollingWatcher",
    "StackSyncClient",
    "StackSyncDevice",
    "TransferRecord",
    "VirtualFilesystem",
    "conflicted_copy_name",
    "make_chunker",
    "make_compressor",
    "make_fingerprinter",
    "make_item_id",
    "sha1_fingerprint",
    "sha256_fingerprint",
]
