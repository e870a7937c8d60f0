"""Pickle codec — the Python analogue of Java serialization, allow-listed.

The default transport, and the wire is a trust boundary: a body is decoded
by an unpickler that resolves no class but the DTOs registered with a code
(:meth:`~repro.serialization.base.WireRegistry.register`).  What it admits
is what json and binary admit: primitives, containers and those DTOs, which
travel as class code + positional field values.  A body naming anything
else (``os.system``, a class of this package that no RPC carries) is
refused with :class:`~repro.errors.SerializationError` before anything runs.

A body of one frame goes without the ``PROTO 5`` + ``FRAME n`` that open it,
and is framed again on decode (the unpickler reads a frame in one go, loose
opcodes one read each); a body that opens with ``PROTO`` is read as it came.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

from repro.errors import SerializationError
from repro.serialization.base import global_wire_registry


class _WireUnpickler(pickle.Unpickler):
    """Resolves registered DTO classes only, by name or by extension code."""

    def find_class(self, module: str, name: str) -> Any:
        try:
            return global_wire_registry.pickle_classes[module, name]
        except KeyError:
            raise pickle.UnpicklingError(
                f"{module}.{name} is not a registered wire type"
            ) from None


class PickleSerializer:
    """Encode/decode via the stdlib pickle protocol, version 5."""

    name = "pickle"

    def encode(self, obj: Any) -> bytes:
        try:
            body = pickle.dumps(obj, protocol=5)
        except Exception as exc:  # pickle raises many distinct types
            raise SerializationError(f"pickle encode failed: {exc}") from exc
        # pickle closes a frame at 64 KiB: a shorter body opening with FRAME is one
        if len(body) <= 65536 and body[2] == 0x95:
            return body[11:]
        return body

    def decode(self, data: bytes) -> Any:
        try:
            if data[0] != 0x80:  # no PROTO: an unframed body, framed again
                data = b"\x95" + len(data).to_bytes(8, "little") + data
            return _WireUnpickler(io.BytesIO(data)).load()
        except Exception as exc:
            raise SerializationError(f"pickle decode failed: {exc}") from exc
