"""Wire envelopes for ObjectMQ requests and replies.

Envelopes are dicts (so every codec can carry them) with a small schema; a
request carries only what its receiver reads::

    request:  {"method": str, "args": list,
               "kwargs": dict,                  # only when non-empty
               "reply_to": str,                 # sync calls only: the
               "correlation_id": str,           #   skeleton replies iff set
               "context": dict, <trace key>}    # added by the proxy, if any
    reply:    {"correlation_id": str, "ok": bool,   # ok is error is None
               "result": any | None, "error": str | None,
               "responder": str,                # "" unless a multicast reply:
               "reached": int}                  #   then its Broker and how many
                                                #   instances the call ran on there

json and binary spell the keys out.  Pickle sends each envelope by position
under its own extension code (registered below, with no json/binary tag, so
those two codecs' bytes do not change)::

    request:  (method, args, kwargs?, reply_to?, correlation_id?, context?, trace?)
    reply:    (correlation_id, result, error?, responder?, reached?)

A method of :data:`METHODS` is sent as its index there, any other as its
name.  A request field that is absent or None is sent as None and rebuilt as
absent, and trailing ones are left off.  A reply's ``error``, ``responder``
and ``reached`` travel only when set, and ``ok`` never does; ``reached`` is
a key of a multicast reply only, so a unicast reply's bytes are the same in
every codec.  A key outside the schema has no position, so pickle refuses to
encode it.  Codes 251 and 247 are wire format (see
:class:`~repro.serialization.base.WireRegistry`); 246, a request layout that
spelled the method out, is retired.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, List, Optional

from repro.serialization.base import global_wire_registry
from repro.telemetry.trace import TRACE_KEY


class Request(dict):
    """A request envelope: a dict that pickle sends by position."""

    __slots__ = ()


class Reply(dict):
    """A reply envelope: a dict that pickle sends by position."""

    __slots__ = ()


def new_correlation_id() -> str:
    return uuid.uuid4().hex


def make_request(
    method: str,
    args: List[Any],
    kwargs: Dict[str, Any],
    call: str,
    multi: bool,
    reply_to: Optional[str] = None,
    correlation_id: Optional[str] = None,
    clock: Optional[float] = None,
) -> Request:
    """Build a request envelope.

    *call* decides whether the reply address travels; *multi* and *clock*
    no longer reach the wire (no receiver read them) and are kept only for
    the signature the benchmark harness calls.
    """
    envelope = Request(method=method, args=list(args))
    if kwargs:
        envelope["kwargs"] = dict(kwargs)
    if call == "sync":
        envelope["reply_to"] = reply_to
        envelope["correlation_id"] = correlation_id
    return envelope


def make_reply(
    correlation_id: str,
    result: Any = None,
    error: Optional[str] = None,
    responder: str = "",
    reached: int = 0,
) -> Reply:
    reply = Reply(
        correlation_id=correlation_id,
        ok=error is None,
        result=result,
        error=error,
        responder=responder,
    )
    if reached:
        reply["reached"] = reached
    return reply


# -- pickle layouts ------------------------------------------------------------

#: The methods of the shipped remote interfaces; a request names one by its
#: index here.  Wire format: append a new method, never reorder or remove one.
METHODS = ("commit_request", "notify_commit", "get_changes", "get_workspaces", "create_workspace",
           "share_workspace", "ping", "get_object_info", "spawn", "shutdown")
_METHOD_CODES = {name: code for code, name in enumerate(METHODS)}
_METHOD_COUNT = len(METHODS)

_REQUEST_KEYS = frozenset(("method", "args", "kwargs", "reply_to", "correlation_id",
                           "context", TRACE_KEY))
_REPLY_KEYS = frozenset(("correlation_id", "ok", "result", "error", "responder", "reached"))


def pack_request(request: Request) -> tuple:
    """``(unpack_request, values)``: the fields in schema order, None for a
    missing one, trailing Nones left off."""
    if not _REQUEST_KEYS.issuperset(request):
        raise ValueError(f"request keys {sorted(request.keys() - _REQUEST_KEYS)} "
                         "have no place in its layout")
    get = request.get
    method = request["method"]
    values = (_METHOD_CODES.get(method, method), request["args"], get("kwargs"), get("reply_to"),
              get("correlation_id"), get("context"), get(TRACE_KEY))
    size = 7
    while size > 2 and values[size - 1] is None:
        size -= 1
    return unpack_request, values[:size]


def unpack_request(method, args, kwargs=None, reply_to=None, correlation_id=None,
                   context=None, trace=None) -> Request:
    if type(method) is int and 0 <= method < _METHOD_COUNT:
        method = METHODS[method]
    elif type(method) is not str:
        raise ValueError(f"method code {method!r} is not in the method table")
    request = Request(method=method, args=args)
    if kwargs is not None:
        request["kwargs"] = kwargs
    if reply_to is not None:
        request["reply_to"] = reply_to
    if correlation_id is not None:
        request["correlation_id"] = correlation_id
    if context is not None:
        request["context"] = context
    if trace is not None:
        request[TRACE_KEY] = trace
    return request


def pack_reply(reply: Reply) -> tuple:
    """``(unpack_reply, values)``: ``ok`` is left to the receiver, and an error,
    a responder and a reach travel only when there is one."""
    if not _REPLY_KEYS.issuperset(reply):
        raise ValueError(f"reply keys {sorted(reply.keys() - _REPLY_KEYS)} "
                         "have no place in its layout")
    correlation_id, result = reply["correlation_id"], reply["result"]
    error, responder, reached = reply.get("error"), reply.get("responder"), reply.get("reached")
    if reached:
        return unpack_reply, (correlation_id, result, error, responder, reached)
    if responder:
        return unpack_reply, (correlation_id, result, error, responder)
    if error is not None:
        return unpack_reply, (correlation_id, result, error)
    return unpack_reply, (correlation_id, result)


def unpack_reply(correlation_id, result, error=None, responder="", reached=0) -> Reply:
    return make_reply(correlation_id, result, error, responder, reached)


global_wire_registry.register(Request, code=251, pack=pack_request, unpack=unpack_request)
global_wire_registry.register(Reply, code=247, pack=pack_reply, unpack=unpack_reply)
