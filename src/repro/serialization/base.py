"""Codec protocol shared by the pluggable serializers.

ObjectMQ "supports different transport protocols (Kryo, Java
Serialization, JSON)" (§3.4).  We mirror that with three codecs sharing one
protocol: JSON (readable, interoperable), pickle (the Python analogue of
Java serialization), and a compact binary codec (the Kryo analogue).

A codec maps between Python objects and bytes.  The RPC layer keeps its
envelope (method name, args, reply address) as dicts of plain
dict/list/str/int/float structures so any codec can carry it; rich domain
objects register ``to_wire``/``from_wire`` hooks via :class:`WireRegistry`.

One :meth:`WireRegistry.register` call per DTO fixes everything the wire
knows about it: the string *tag* json and binary spell it with, and the
*code* (with the dataclass field order, or a packed layout) pickle spells
it with.  The envelopes register a code and no tag.  All three codecs
therefore admit the same surface — primitives, containers and the
registered DTOs — and nothing else.
"""

from __future__ import annotations

import copyreg
import dataclasses
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, Type

from repro.errors import SerializationError

#: The tag of a plain dict escaped because it holds ``__wire__``; reserved.
_ESCAPE = "dict"


class Serializer(Protocol):
    """Encode/decode protocol implemented by all codecs."""

    name: str

    def encode(self, obj: Any) -> bytes:
        """Serialize *obj* into bytes; raises SerializationError on failure."""
        ...

    def decode(self, data: bytes) -> Any:
        """Deserialize bytes produced by :meth:`encode`."""
        ...


class WireRegistry:
    """Registry mapping dataclass-like types to wire dict representations.

    JSON and the binary codec cannot carry arbitrary classes; types that
    cross the RPC boundary register a ``(to_wire, from_wire)`` pair keyed by
    a stable type tag.  Encoded values become ``{"__wire__": tag, ...}``
    dicts that decode back into the original type.

    A dataclass registered with a *code* also travels through pickle the
    way Kryo writes a registered class: the code (a ``copyreg`` extension
    code, one ``EXT1`` byte pair on the wire instead of module + qualname)
    followed by the field values in declaration order — never a field
    name — and is rebuilt through ``cls(*values)``, so ``__post_init__``
    validates what a peer sent.  With *pack* / *unpack* the type has a
    **packed layout** instead: ``pack(obj)`` is its ``copyreg`` reducer and
    returns ``(unpack, values)``, the values that travel (a digest as raw
    bytes, a derivable field left out), and the module-level
    ``unpack(*values)`` rebuilds the instance; the code then names *unpack*,
    which the unpickler admits like a class (by name or code, through
    :attr:`pickle_classes`) and which must build through the class's own
    checks, as its constructor does.  json and binary keep ``to_wire``; a type
    registered without a *tag* (an RPC envelope, a ``dict`` to them) has a
    pickle layout only.  Codes are wire format: use the private range
    240-255, never reuse one, and give a changed layout a new code — a
    retired one has no decoder and is refused like any unregistered name.
    ``copyreg`` is process-wide, so only types of the
    :data:`global_wire_registry` should be given one.
    """

    def __init__(self) -> None:
        self._by_type: Dict[Type, Tuple[str, Callable[[Any], dict]]] = {}
        self._by_tag: Dict[str, Callable[[dict], Any]] = {}
        #: ``(module, qualname) -> class / unpack function`` of every type
        #: registered with a code: the allow-list of the pickle unpickler.
        self.pickle_classes: Dict[Tuple[str, str], Callable[..., Any]] = {}

    def register(
        self,
        cls: Type,
        tag: Optional[str] = None,
        to_wire: Optional[Callable[[Any], dict]] = None,
        from_wire: Optional[Callable[[dict], Any]] = None,
        code: Optional[int] = None,
        pack: Optional[Callable[[Any], tuple]] = None,
        unpack: Optional[Callable[..., Any]] = None,
    ) -> None:
        if tag == _ESCAPE:
            raise ValueError(f"wire tag {tag!r} is reserved")
        if tag is not None:
            self._by_type[cls] = (tag, to_wire)
            self._by_tag[tag] = from_wire
        if code is not None:
            if unpack is None:
                values = attrgetter(*(f.name for f in dataclasses.fields(cls)))
                unpack = cls
                pack = lambda obj: (cls, values(obj))  # noqa: E731
            copyreg.add_extension(unpack.__module__, unpack.__qualname__, code)
            copyreg.pickle(cls, pack)
            for admitted in (cls, unpack):
                self.pickle_classes[admitted.__module__, admitted.__qualname__] = admitted

    def lower(self, obj: Any) -> Any:
        """Recursively convert registered types into tagged dicts."""
        entry = self._by_type.get(type(obj))
        if entry is not None:
            tag, to_wire = entry
            payload = {key: self.lower(value) for key, value in to_wire(obj).items()}
            payload["__wire__"] = tag
            return payload
        if isinstance(obj, dict):
            lowered = {key: self.lower(value) for key, value in obj.items()}
            return {"__wire__": _ESCAPE, _ESCAPE: lowered} if "__wire__" in obj else lowered
        if isinstance(obj, (list, tuple)):
            return [self.lower(item) for item in obj]
        return obj

    def raise_(self, obj: Any) -> Any:
        """Recursively convert tagged dicts back into registered types.

        Only string-valued ``__wire__`` entries are wire tags (tags are
        strings by construction); a dict whose ``__wire__`` holds any
        other type is plain application data and passes through intact.
        A tagged dict that cannot be what its tag says (an escaped dict
        holding no dict, a DTO missing a field) raises
        :class:`SerializationError`, as any other malformed body does.
        """
        if isinstance(obj, dict):
            tag = obj.get("__wire__")
            if isinstance(tag, str):
                try:
                    if tag == _ESCAPE:
                        return {
                            key: self.raise_(value) for key, value in obj[_ESCAPE].items()
                        }
                    from_wire = self._by_tag.get(tag)
                    if from_wire is None:
                        raise SerializationError(f"unknown wire tag {tag!r}")
                    return from_wire(
                        {
                            key: self.raise_(value)
                            for key, value in obj.items()
                            if key != "__wire__"
                        }
                    )
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise SerializationError(f"malformed {tag!r} value: {exc}") from exc
            return {key: self.raise_(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [self.raise_(item) for item in obj]
        return obj


#: Process-global registry used by the default codecs.  Domain packages
#: (repro.sync, repro.client) register their DTOs here at import time.
global_wire_registry = WireRegistry()
