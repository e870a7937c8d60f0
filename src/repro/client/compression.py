"""Chunk compression (§4.1).

"The chunks are always compressed before transmission using Gzip or
Bzip2, albeit other compression algorithms can be easily plugged into the
system."  Codecs share a two-method protocol; the dedup ablation compares
all three.
"""

from __future__ import annotations

import bz2
import zlib
from typing import Protocol

#: zlib level of :class:`GzipCompressor`: the fast end of DEFLATE.
GZIP_LEVEL = 1
#: bzip2 block size of :class:`Bzip2Compressor`: its best ratio.
BZIP2_LEVEL = 9


class Compressor(Protocol):
    name: str

    def compress(self, data: bytes) -> bytes: ...

    def decompress(self, data: bytes) -> bytes: ...


class GzipCompressor:
    """zlib/DEFLATE — the default, favouring speed."""

    name = "gzip"

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, GZIP_LEVEL)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class Bzip2Compressor:
    """bzip2 — better ratio, markedly slower."""

    name = "bzip2"

    def compress(self, data: bytes) -> bytes:
        return bz2.compress(data, BZIP2_LEVEL)

    def decompress(self, data: bytes) -> bytes:
        return bz2.decompress(data)


class NullCompressor:
    """Identity codec, for ablations isolating compression effects."""

    name = "null"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data
