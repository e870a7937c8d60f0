"""Deterministic synthetic file contents for trace replay.

The benchmarking tool of the paper replays traces "using real content".
We generate contents deterministically from (path, seed) so every replay
— StackSync, Dropbox baseline, every provider profile — sees byte-
identical files, making traffic comparisons fair.

Compressibility is controllable: each file interleaves pseudo-random
blocks (incompressible) with runs of repeated text (compressible), with
the compressible fraction drawn per file.  Real personal-cloud corpora
mix media (incompressible) and documents (compressible) the same way.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional

_FILLER = (
    b"the quick brown fox jumps over the lazy dog 0123456789 "
    b"lorem ipsum dolor sit amet consectetur adipiscing elit "
)


def generate_content(
    path: str,
    size: int,
    seed: int = 0,
    compressible_fraction: Optional[float] = None,
) -> bytes:
    """Deterministic pseudo-random content of exactly *size* bytes."""
    if size <= 0:
        return b""
    digest = hashlib.sha256(f"{seed}:{path}".encode("utf-8")).digest()
    rng = random.Random(digest)
    if compressible_fraction is None:
        compressible_fraction = rng.uniform(0.2, 0.8)

    blocks = []
    produced = 0
    block_size = 4096
    while produced < size:
        take = min(block_size, size - produced)
        if rng.random() < compressible_fraction:
            repeats = take // len(_FILLER) + 1
            blocks.append((_FILLER * repeats)[:take])
        else:
            blocks.append(rng.getrandbits(8 * take).to_bytes(take, "little"))
        produced += take
    return b"".join(blocks)


class ContentStore:
    """Tracks the current content of every live file during trace replay.

    *compressible_fraction* pins every file's compressibility (None lets
    each file draw its own); the overhead benches set it low because the
    paper's storage-traffic figures imply a mostly incompressible corpus.
    """

    def __init__(self, seed: int = 0, compressible_fraction: Optional[float] = None):
        self.seed = seed
        self.compressible_fraction = compressible_fraction
        self._contents: Dict[str, bytes] = {}

    def create(self, path: str, size: int) -> bytes:
        content = generate_content(
            path,
            size,
            seed=self.seed,
            compressible_fraction=self.compressible_fraction,
        )
        self._contents[path] = content
        return content

    def set(self, path: str, content: bytes) -> None:
        self._contents[path] = content

    def get(self, path: str) -> bytes:
        return self._contents[path]

    def delete(self, path: str) -> None:
        self._contents.pop(path, None)

    def exists(self, path: str) -> bool:
        return path in self._contents
