"""JSON codec — the interoperable, human-readable transport."""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.errors import SerializationError
from repro.serialization.base import _ESCAPE, WireRegistry, global_wire_registry

#: Tag used to carry raw bytes through JSON (latin-1 escape).
_BYTES_TAG = "__bytes__"


class JsonSerializer:
    """Encode/decode arbitrary envelope structures as UTF-8 JSON.

    Bytes values are transported latin-1-escaped under a reserved key, so
    chunk fingerprints and small payloads survive the round trip.  A plain
    dict whose only key is that one is escaped the way the registry escapes
    one holding ``__wire__``, so it cannot decode as bytes.
    """

    name = "json"

    def __init__(self, registry: Optional[WireRegistry] = None):
        self.registry = registry if registry is not None else global_wire_registry

    def encode(self, obj: Any) -> bytes:
        try:
            lowered = self._lower_bytes(self.registry.lower(obj))
            return json.dumps(lowered, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"json encode failed: {exc}") from exc

    def decode(self, data: bytes) -> Any:
        try:
            parsed = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise SerializationError(f"json decode failed: {exc}") from exc
        return self.registry.raise_(self._raise_bytes(parsed))

    def _lower_bytes(self, obj: Any) -> Any:
        if isinstance(obj, bytes):
            return {_BYTES_TAG: obj.decode("latin-1")}
        if isinstance(obj, dict):
            lowered = {key: self._lower_bytes(value) for key, value in obj.items()}
            if obj.keys() == {_BYTES_TAG}:
                return {"__wire__": _ESCAPE, _ESCAPE: lowered}
            return lowered
        if isinstance(obj, (list, tuple)):
            return [self._lower_bytes(item) for item in obj]
        return obj

    def _raise_bytes(self, obj: Any, escaped: bool = False) -> Any:
        """Decode bytes tags; *escaped* marks an escaped dict's own keys as data."""
        if isinstance(obj, dict):
            if not escaped and obj.keys() == {_BYTES_TAG}:
                try:
                    return obj[_BYTES_TAG].encode("latin-1")
                except (AttributeError, UnicodeEncodeError) as exc:
                    raise SerializationError(f"malformed {_BYTES_TAG} value: {exc}") from exc
            wrapper = not escaped and obj.get("__wire__") == _ESCAPE
            return {
                key: self._raise_bytes(value, wrapper and key == _ESCAPE)
                for key, value in obj.items()
            }
        if isinstance(obj, list):
            return [self._raise_bytes(item) for item in obj]
        return obj
