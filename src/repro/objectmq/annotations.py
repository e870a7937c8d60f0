"""Method decorators defining ObjectMQ invocation semantics (§3.2).

Following Waldo et al., ObjectMQ makes remoteness explicit: every method on
a remote interface must declare its invocation abstraction —

* :func:`async_method` — fire-and-forget one-way publish (@AsyncMethod);
* :func:`sync_method` — blocking request/reply with timeout and retries
  (@SyncMethod);
* :func:`multi_method` — one-to-many fanout, combinable with either of the
  above (@MultiMethod).

Example, mirroring Fig 6 of the paper::

    @remote_interface
    class SyncServiceApi(Remote):
        @sync_method(retry=5, timeout=1.5)
        def get_changes(self, workspace): ...

        @async_method
        def commit_request(self, workspace, objects_changed): ...

    @remote_interface
    class RemoteWorkspaceApi(Remote):
        @multi_method
        @async_method
        def notify_commit(self, notification): ...
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from itertools import islice, takewhile
from typing import Callable, Dict, Optional, Tuple, Type

from repro.errors import NotARemoteInterface

#: Attribute attached to decorated methods.
_CALL_ATTR = "_omq_call"
#: Attribute attached to classes decorated with @remote_interface.
_IFACE_ATTR = "_omq_remote_interface"

#: Defaults matching the paper's SyncService declarations.
DEFAULT_TIMEOUT = 1.5
DEFAULT_RETRY = 5


@dataclass(frozen=True)
class CallSpec:
    """Invocation semantics for one remote method."""

    kind: str  # "sync" or "async"
    multi: bool = False
    timeout: float = DEFAULT_TIMEOUT
    retry: int = DEFAULT_RETRY
    #: For sync multicasts: return as soon as this many replies arrived
    #: (None = collect from every bound instance until the timeout).
    quorum: Optional[int] = None
    #: The method's leading positional-or-keyword parameters, set by
    #: :func:`remote_interface`: keyword arguments that fill them go by position.
    params: Tuple[str, ...] = ()

    @property
    def expects_reply(self) -> bool:
        return self.kind == "sync"


class Remote:
    """Marker base class for remote interfaces (the paper's ``Remote``)."""


def _get_spec(func: Callable) -> Optional[CallSpec]:
    return getattr(func, _CALL_ATTR, None)


def async_method(func: Callable) -> Callable:
    """Mark *func* as a non-blocking one-way invocation."""
    existing = _get_spec(func)
    multi = existing.multi if existing else False
    quorum = existing.quorum if existing else None
    setattr(func, _CALL_ATTR, CallSpec(kind="async", multi=multi, quorum=quorum))
    return func


def sync_method(
    func: Optional[Callable] = None,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    retry: int = DEFAULT_RETRY,
) -> Callable:
    """Mark a method as blocking request/reply.

    Usable bare (``@sync_method``) or parameterised
    (``@sync_method(retry=5, timeout=1.5)``).  *timeout* is in seconds per
    attempt; *retry* is the number of additional attempts before
    :class:`~repro.errors.RemoteTimeout` is raised.
    """

    def apply(target: Callable) -> Callable:
        existing = _get_spec(target)
        multi = existing.multi if existing else False
        quorum = existing.quorum if existing else None
        setattr(
            target,
            _CALL_ATTR,
            CallSpec(
                kind="sync", multi=multi, timeout=timeout, retry=retry, quorum=quorum
            ),
        )
        return target

    if func is not None:
        return apply(func)
    return apply


def multi_method(
    func: Optional[Callable] = None, *, quorum: Optional[int] = None
) -> Callable:
    """Mark a method as one-to-many; composes with sync/async decorators.

    Decorator order does not matter: ``@multi_method`` above or below
    ``@async_method``/``@sync_method`` produces the same spec.  For sync
    multicasts, ``quorum=N`` makes the call return as soon as N replies
    arrive instead of waiting out the timeout for the whole group —
    useful for read-any / majority patterns over replicated objects.
    """

    def apply(target: Callable) -> Callable:
        existing = _get_spec(target)
        if existing is None:
            # Default pairing is async, the common case in the paper.
            spec = CallSpec(kind="async", multi=True, quorum=quorum)
        else:
            spec = CallSpec(
                kind=existing.kind,
                multi=True,
                timeout=existing.timeout,
                retry=existing.retry,
                quorum=quorum if quorum is not None else existing.quorum,
            )
        setattr(target, _CALL_ATTR, spec)
        return target

    if func is not None:
        return apply(func)
    return apply


def remote_interface(cls: Type) -> Type:
    """Class decorator validating and registering a remote interface.

    Every public method must carry a :class:`CallSpec`; remoteness must be
    explicit, so an undecorated public method is an error rather than a
    silent default.
    """
    specs: Dict[str, CallSpec] = {}
    for name, member in inspect.getmembers(cls, predicate=callable):
        if name.startswith("_"):
            continue
        spec = _get_spec(member)
        if spec is None:
            raise NotARemoteInterface(
                f"{cls.__name__}.{name} lacks an invocation decorator "
                "(@async_method / @sync_method / @multi_method)"
            )
        parameters = islice(inspect.signature(member).parameters.values(), 1, None)
        positional = takewhile(lambda p: p.kind is p.POSITIONAL_OR_KEYWORD, parameters)
        specs[name] = replace(spec, params=tuple(p.name for p in positional))
    setattr(cls, _IFACE_ATTR, specs)
    return cls


def interface_specs(cls: Type) -> Dict[str, CallSpec]:
    """Return the method->CallSpec map of a @remote_interface class."""
    specs = getattr(cls, _IFACE_ATTR, None)
    if specs is None:
        raise NotARemoteInterface(
            f"{cls.__name__} is not decorated with @remote_interface"
        )
    return specs


def is_remote_interface(cls: Type) -> bool:
    return getattr(cls, _IFACE_ATTR, None) is not None
