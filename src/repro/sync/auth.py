"""Authentication and authorization services (§4, §4.1).

The paper's architecture figure omits them "for clarity" but states that
the client "must be authenticated with both entities" — the SyncService
and the Storage back-end.  This module supplies both halves:

* :class:`AuthService` — account registry (salted PBKDF2 password
  hashes) issuing expiring bearer tokens;
* :func:`sync_auth_interceptor` — an ObjectMQ server interceptor that
  authenticates every SyncService call from the propagated call context
  and authorizes it against workspace ACLs in the metadata back-end.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import AuthenticationError, AuthorizationError

if TYPE_CHECKING:  # avoid a circular import: metadata.base imports sync.models
    from repro.metadata.base import MetadataBackend

#: Default token lifetime, seconds.
DEFAULT_TOKEN_TTL = 3600.0
_PBKDF2_ITERATIONS = 10_000


@dataclass(frozen=True)
class AuthToken:
    """A bearer token bound to one user."""

    token: str
    user_id: str
    expires_at: float


class AuthService:
    """Password accounts + expiring bearer tokens."""

    def __init__(
        self,
        token_ttl: float = DEFAULT_TOKEN_TTL,
        clock: Callable[[], float] = time.time,
    ):
        self.token_ttl = token_ttl
        self.clock = clock
        self._lock = threading.Lock()
        self._accounts: Dict[str, tuple] = {}  # user -> (salt, hash)
        self._tokens: Dict[str, AuthToken] = {}

    # -- accounts -----------------------------------------------------------------

    @staticmethod
    def _hash(password: str, salt: bytes) -> bytes:
        return hashlib.pbkdf2_hmac(
            "sha256", password.encode("utf-8"), salt, _PBKDF2_ITERATIONS
        )

    def create_account(self, user_id: str, password: str) -> None:
        with self._lock:
            if user_id in self._accounts:
                raise AuthenticationError(f"account {user_id!r} already exists")
            salt = os.urandom(16)
            self._accounts[user_id] = (salt, self._hash(password, salt))

    def _verify_password(self, user_id: str, password: str) -> None:
        with self._lock:
            entry = self._accounts.get(user_id)
        if entry is None:
            raise AuthenticationError(f"unknown account {user_id!r}")
        salt, expected = entry
        if not hmac.compare_digest(self._hash(password, salt), expected):
            raise AuthenticationError("bad credentials")

    # -- tokens --------------------------------------------------------------------

    def login(self, user_id: str, password: str) -> AuthToken:
        """Authenticate and issue a fresh bearer token."""
        self._verify_password(user_id, password)
        token = AuthToken(
            token=os.urandom(20).hex(),
            user_id=user_id,
            expires_at=self.clock() + self.token_ttl,
        )
        with self._lock:
            self._tokens[token.token] = token
        return token

    def validate(self, token: Optional[str]) -> str:
        """Return the user id behind *token*; raise if invalid/expired."""
        if not token:
            raise AuthenticationError("missing auth token")
        with self._lock:
            entry = self._tokens.get(token)
        if entry is None:
            raise AuthenticationError("unknown or revoked token")
        if entry.expires_at <= self.clock():
            with self._lock:
                self._tokens.pop(token, None)
            raise AuthenticationError("token expired")
        return entry.user_id


#: SyncService methods whose first argument is a workspace id.
_WORKSPACE_METHODS = {"get_changes", "commit_request"}


def sync_auth_interceptor(auth: AuthService, metadata: "MetadataBackend"):
    """Interceptor enforcing authentication + workspace ACLs.

    Plug into :meth:`repro.objectmq.Broker.bind`::

        broker.bind(SYNC_SERVICE_OID, service,
                    interceptors=[sync_auth_interceptor(auth, metadata)])

    Rules:

    * every call must carry a valid ``auth_token`` in its context;
    * ``get_workspaces(user_id)`` may only ask about the token's user;
    * workspace-scoped calls require the token's user to hold access to
      that workspace (owner or granted).
    """

    def interceptor(method: str, args, kwargs, context: dict) -> None:
        user = auth.validate(context.get("auth_token"))
        if method == "get_workspaces":
            asked = args[0] if args else kwargs.get("user_id")
            if asked != user:
                raise AuthorizationError(
                    f"{user!r} may not act as {asked!r}"
                )
            return
        if method == "create_workspace":
            owner = args[1] if len(args) > 1 else kwargs.get("owner")
            if owner != user:
                raise AuthorizationError(
                    f"{user!r} may not create workspaces owned by {owner!r}"
                )
            return
        if method == "share_workspace":
            workspace_id = args[0] if args else kwargs.get("workspace_id")
            owns = any(
                w.workspace_id == workspace_id and w.owner == user
                for w in metadata.workspaces_for(user)
            )
            if not owns:
                raise AuthorizationError(
                    f"only the owner may share workspace {workspace_id!r}"
                )
            return
        if method in _WORKSPACE_METHODS:
            workspace_id = args[0] if args else kwargs.get("workspace_id")
            allowed = {
                w.workspace_id for w in metadata.workspaces_for(user)
            }
            if workspace_id not in allowed:
                raise AuthorizationError(
                    f"{user!r} has no access to workspace {workspace_id!r}"
                )

    return interceptor
