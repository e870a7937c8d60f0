"""File chunking (§4.1): fixed-size and content-defined strategies.

StackSync "does not use the notion of file, but rather operates on a
lower level by splitting files into chunks of 512 KB".  The Chunker
supports both strategies of the paper:

* :class:`FixedChunker` — the default static chunking.  Cheap, but it
  suffers from the *boundary-shifting problem*: inserting bytes at the
  beginning of a file shifts every later boundary, so every chunk
  changes — this is exactly why the paper's UPDATE traffic and sync time
  are skewed (Fig 7c-e).
* :class:`ContentDefinedChunker` — buzhash (cyclic-polynomial) rolling
  hash with min/target/max sizes.  Boundaries follow content, so a
  prepend only rewrites the first chunk(s).  Slower; included because the
  paper keeps it as a pluggable alternative and we ablate the trade-off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.client.fingerprint import sha1_fingerprint

#: The paper's default chunk size.
DEFAULT_CHUNK_SIZE = 512 * 1024


@dataclass(frozen=True)
class Chunk:
    """One chunk of a file: payload, position, and its fingerprint."""

    data: bytes
    offset: int
    fingerprint: bytes

    @property
    def size(self) -> int:
        return len(self.data)


class FixedChunker:
    """Static chunking into fixed-size blocks (default 512 KB)."""

    name = "fixed"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

    def chunk(self, data: bytes) -> List[Chunk]:
        chunks = []
        for offset in range(0, len(data), self.chunk_size):
            payload = data[offset : offset + self.chunk_size]
            chunks.append(
                Chunk(data=payload, offset=offset, fingerprint=sha1_fingerprint(payload))
            )
        if not chunks:
            # An empty file is a single empty chunk, so it still has a
            # fingerprint and can round-trip through storage.
            chunks.append(Chunk(data=b"", offset=0, fingerprint=sha1_fingerprint(b"")))
        return chunks


def _buzhash_table(seed: int = 0x5AC5) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(256)]


_BUZ_TABLE = _buzhash_table()
_MASK64 = (1 << 64) - 1


def _rotl(value: int, amount: int) -> int:
    amount %= 64
    return ((value << amount) | (value >> (64 - amount))) & _MASK64


class ContentDefinedChunker:
    """Buzhash-based content-defined chunking.

    A 64-bit cyclic-polynomial rolling hash is computed over a sliding
    window; a chunk boundary is declared whenever ``hash & mask == magic``
    (expected chunk length = ``target``), subject to ``minimum`` and
    ``maximum`` bounds.  Deterministic across runs and processes.
    """

    name = "cdc"

    def __init__(
        self,
        minimum: int = 128 * 1024,
        target: int = 512 * 1024,
        maximum: int = 1024 * 1024,
        window: int = 48,
    ):
        if not 0 < minimum <= target <= maximum:
            raise ValueError("need 0 < minimum <= target <= maximum")
        self.minimum = minimum
        self.target = target
        self.maximum = maximum
        self.window = window
        # mask with log2(target) low bits set: boundary prob 1/target
        self._mask = (1 << max(1, target.bit_length() - 1)) - 1
        self._magic = 0x78 & self._mask

    def chunk(self, data: bytes) -> List[Chunk]:
        if not data:
            return [Chunk(data=b"", offset=0, fingerprint=sha1_fingerprint(b""))]
        boundaries = self._find_boundaries(data)
        chunks = []
        start = 0
        for end in boundaries:
            payload = data[start:end]
            chunks.append(
                Chunk(data=payload, offset=start, fingerprint=sha1_fingerprint(payload))
            )
            start = end
        return chunks

    def _find_boundaries(self, data: bytes) -> List[int]:
        boundaries: List[int] = []
        length = len(data)
        start = 0
        while start < length:
            end = min(start + self.maximum, length)
            cut = end
            pos = start + self.minimum
            if pos < end:
                digest = 0
                window_start = max(start, pos - self.window)
                for byte in data[window_start:pos]:
                    digest = (_rotl(digest, 1) ^ _BUZ_TABLE[byte]) & _MASK64
                while pos < end:
                    entering = data[pos]
                    digest = (_rotl(digest, 1) ^ _BUZ_TABLE[entering]) & _MASK64
                    leaving_index = pos - self.window
                    if leaving_index >= start:
                        digest ^= _rotl(
                            _BUZ_TABLE[data[leaving_index]], self.window
                        )
                    pos += 1
                    if (digest & self._mask) == self._magic:
                        cut = pos
                        break
            boundaries.append(cut)
            start = cut
        return boundaries
