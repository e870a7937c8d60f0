"""Chunk fingerprinting (§4.1).

"Each chunk is identified by a fingerprint, which by default is the 20
bytes of its SHA1 hash."  The fingerprinter is pluggable so deployments
can move to SHA-256 without touching the chunking or dedup layers.
"""

from __future__ import annotations

import hashlib
from typing import Callable

#: Fingerprint function type: bytes -> digest bytes.
Fingerprinter = Callable[[bytes], bytes]


def sha1_fingerprint(data: bytes) -> bytes:
    """The paper's default: the 20 bytes of the SHA-1 digest."""
    return hashlib.sha1(data).digest()


def sha256_fingerprint(data: bytes) -> bytes:
    """Stronger alternative fingerprint (32 bytes)."""
    return hashlib.sha256(data).digest()


FINGERPRINTERS = {
    "sha1": sha1_fingerprint,
    "sha256": sha256_fingerprint,
}


def make_fingerprinter(name: str) -> Fingerprinter:
    try:
        return FINGERPRINTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown fingerprinter {name!r}; available: {sorted(FINGERPRINTERS)}"
        ) from None
