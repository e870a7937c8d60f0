"""rsync-style delta encoding — the librsync role in Dropbox (§2, §5.2.2).

The paper attributes Dropbox's UPDATE efficiency to delta encoding via
*librsync*.  This module implements the rsync algorithm from scratch:

1. the receiver summarizes its old file as per-block *signatures*
   (rolling Adler-32 weak hash + truncated MD5 strong hash);
2. the sender scans the new file with a rolling window, emitting COPY
   tokens for blocks the receiver already has and LITERAL runs for novel
   bytes;
3. the receiver replays the delta against the old file.

The implementation is optimized for the common personal-cloud case of
long unchanged runs: after any block match it resumes block-aligned
scanning (no per-byte rolling), so a small prepend costs one short
rolling search instead of re-rolling the whole file.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

DEFAULT_BLOCK_SIZE = 4096
_ADLER_MOD = 65521

#: Wire-size model: per-token framing cost (type byte + varint offsets).
COPY_TOKEN_BYTES = 5
LITERAL_HEADER_BYTES = 3
#: Signature entry: 4-byte weak hash + 8-byte strong hash + index.
SIGNATURE_ENTRY_BYTES = 16


@dataclass(frozen=True)
class BlockSignature:
    """Signature of one block of the old file."""

    index: int
    weak: int
    strong: bytes


@dataclass(frozen=True)
class Signature:
    """Complete signature of one file version."""

    block_size: int
    blocks: Tuple[BlockSignature, ...]
    file_size: int

    @property
    def wire_size(self) -> int:
        """Bytes needed to ship this signature to the sender."""
        return 8 + len(self.blocks) * SIGNATURE_ENTRY_BYTES


#: Delta ops: ("copy", block_index) or ("literal", bytes).
DeltaOp = Tuple[str, Union[int, bytes]]


@dataclass(frozen=True)
class Delta:
    """An rsync delta: the instructions to rebuild the new file."""

    block_size: int
    ops: Tuple[DeltaOp, ...]

    @property
    def wire_size(self) -> int:
        """Bytes needed to ship this delta."""
        size = 4
        for kind, payload in self.ops:
            if kind == "copy":
                size += COPY_TOKEN_BYTES
            else:
                size += LITERAL_HEADER_BYTES + len(payload)
        return size


def _weak_checksum(block: bytes) -> int:
    return zlib.adler32(block) & 0xFFFFFFFF


def _strong_checksum(block: bytes) -> bytes:
    return hashlib.md5(block).digest()[:8]


def compute_signature(data: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> Signature:
    """Per-block signatures of *data* (receiver side)."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    blocks = []
    for index, offset in enumerate(range(0, len(data), block_size)):
        block = data[offset : offset + block_size]
        blocks.append(
            BlockSignature(
                index=index, weak=_weak_checksum(block), strong=_strong_checksum(block)
            )
        )
    return Signature(block_size=block_size, blocks=tuple(blocks), file_size=len(data))


class _RollingAdler:
    """Incrementally maintained Adler-32 over a sliding window."""

    __slots__ = ("a", "b", "length")

    def __init__(self, window: bytes):
        self.length = len(window)
        self.a = 1
        self.b = 0
        for byte in window:
            self.a = (self.a + byte) % _ADLER_MOD
            self.b = (self.b + self.a) % _ADLER_MOD

    def roll(self, out_byte: int, in_byte: int) -> None:
        self.a = (self.a - out_byte + in_byte) % _ADLER_MOD
        self.b = (self.b - self.length * out_byte + self.a - 1) % _ADLER_MOD

    @property
    def digest(self) -> int:
        return ((self.b << 16) | self.a) & 0xFFFFFFFF


def compute_delta(signature: Signature, new_data: bytes) -> Delta:
    """Scan *new_data* against *signature*, producing a minimal delta."""
    block_size = signature.block_size
    by_weak: Dict[int, List[BlockSignature]] = {}
    for block in signature.blocks:
        # Only full-size blocks participate in rolling matches; a trailing
        # partial block is matched explicitly at the end.
        by_weak.setdefault(block.weak, []).append(block)

    full_blocks = (
        signature.file_size // block_size
        if signature.file_size % block_size
        else len(signature.blocks)
    )

    ops: List[DeltaOp] = []
    literal_start = 0
    pos = 0
    n = len(new_data)

    def flush_literal(end: int) -> None:
        nonlocal literal_start
        if end > literal_start:
            ops.append(("literal", bytes(new_data[literal_start:end])))
        literal_start = end

    def try_match(offset: int) -> int:
        """Return the matched block index at *offset*, or -1."""
        window = new_data[offset : offset + block_size]
        candidates = by_weak.get(_weak_checksum(window))
        if not candidates:
            return -1
        strong = _strong_checksum(window)
        for candidate in candidates:
            if candidate.strong == strong and (
                candidate.index < full_blocks
                or offset + block_size == n  # partial tail block
            ):
                return candidate.index
        return -1

    while pos + block_size <= n:
        # Fast path: block-aligned probe (cheap, C-speed checksums).
        matched = try_match(pos)
        if matched >= 0:
            flush_literal(pos)
            ops.append(("copy", matched))
            pos += block_size
            literal_start = pos
            continue
        # Slow path: roll byte-by-byte until the window matches again.
        roller = _RollingAdler(new_data[pos : pos + block_size])
        while pos + block_size <= n:
            candidates = by_weak.get(roller.digest)
            if candidates:
                strong = _strong_checksum(new_data[pos : pos + block_size])
                found = next(
                    (c for c in candidates if c.strong == strong and c.index < full_blocks),
                    None,
                )
                if found is not None:
                    flush_literal(pos)
                    ops.append(("copy", found.index))
                    pos += block_size
                    literal_start = pos
                    break
            if pos + block_size >= n:
                pos = n
                break
            roller.roll(new_data[pos], new_data[pos + block_size])
            pos += 1
        else:
            break

    # Trailing partial block: emit as copy if it matches the old tail.
    if literal_start < n:
        tail = new_data[literal_start:]
        if signature.blocks:
            last = signature.blocks[-1]
            if (
                len(tail) == signature.file_size - (len(signature.blocks) - 1) * block_size
                and last.weak == _weak_checksum(tail)
                and last.strong == _strong_checksum(tail)
            ):
                ops.append(("copy", last.index))
                literal_start = n
    flush_literal(n)
    return Delta(block_size=block_size, ops=tuple(ops))


def apply_delta(old_data: bytes, delta: Delta) -> bytes:
    """Receiver side: rebuild the new file from old data + delta."""
    pieces: List[bytes] = []
    for kind, payload in delta.ops:
        if kind == "copy":
            start = payload * delta.block_size
            pieces.append(old_data[start : start + delta.block_size])
        else:
            pieces.append(payload)
    return b"".join(pieces)
