"""Metadata back-ends (the PostgreSQL role of the paper's architecture)."""

from repro.metadata.base import MetadataBackend
from repro.metadata.memory_backend import MemoryMetadataBackend
from repro.metadata.sharded import ShardedMetadataBackend
from repro.metadata.sqlite_backend import SqliteMetadataBackend

__all__ = [
    "MemoryMetadataBackend",
    "MetadataBackend",
    "ShardedMetadataBackend",
    "SqliteMetadataBackend",
]
