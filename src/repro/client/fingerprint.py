"""Chunk fingerprinting (§4.1).

"Each chunk is identified by a fingerprint, which by default is the 20
bytes of its SHA1 hash."  Both chunkers and the client's integrity check
on download call :func:`sha1_fingerprint`.
"""

from __future__ import annotations

import hashlib


def sha1_fingerprint(data: bytes) -> bytes:
    """The paper's default: the 20 bytes of the SHA-1 digest."""
    return hashlib.sha1(data).digest()
