"""Wire envelopes for ObjectMQ requests and replies.

Envelopes are plain dicts (so every codec can carry them) with a small
schema; a request carries only what its receiver reads::

    request:  {"method": str, "args": list,
               "kwargs": dict,                  # only when non-empty
               "reply_to": str,                 # sync calls only: the
               "correlation_id": str,           #   skeleton replies iff set
               "context": dict, <trace key>}    # added by the proxy, if any
    reply:    {"correlation_id": str, "ok": bool,
               "result": any | None, "error": str | None,
               "responder": str}
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, List, Optional


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
) -> Dict[str, Any]:
    """Build a request envelope.

    *call* decides whether the reply address travels; *multi* and *clock*
    no longer reach the wire (no receiver read them) and are kept only for
    the signature the benchmark harness calls.
    """
    envelope: Dict[str, Any] = {"method": method, "args": list(args)}
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
) -> Dict[str, Any]:
    return {
        "correlation_id": correlation_id,
        "ok": error is None,
        "result": result,
        "error": error,
        "responder": responder,
    }


def is_request(envelope: Dict[str, Any]) -> bool:
    return "method" in envelope


def is_reply(envelope: Dict[str, Any]) -> bool:
    return "ok" in envelope and "method" not in envelope
