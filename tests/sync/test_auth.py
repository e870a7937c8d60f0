"""Tests for the authentication/authorization services and interceptors."""

from __future__ import annotations

import pytest

from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    RemoteInvocationError,
)
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker
from repro.sync import SYNC_SERVICE_OID, SyncService, SyncServiceApi, Workspace
from repro.sync.auth import (
    AuthService,
    sync_auth_interceptor,
)


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


# -- AuthService ---------------------------------------------------------------------


def test_account_lifecycle_and_login():
    auth = AuthService()
    auth.create_account("alice", "s3cret")
    token = auth.login("alice", "s3cret")
    assert auth.validate(token.token) == "alice"


def test_duplicate_account_rejected():
    auth = AuthService()
    auth.create_account("alice", "x")
    with pytest.raises(AuthenticationError):
        auth.create_account("alice", "y")


def test_bad_password_rejected():
    auth = AuthService()
    auth.create_account("alice", "right")
    with pytest.raises(AuthenticationError):
        auth.login("alice", "wrong")
    with pytest.raises(AuthenticationError):
        auth.login("ghost", "any")


def test_token_expiry():
    clock = FakeClock()
    auth = AuthService(token_ttl=10.0, clock=clock)
    auth.create_account("alice", "pw")
    token = auth.login("alice", "pw")
    clock.t += 5
    assert auth.validate(token.token) == "alice"
    clock.t += 6
    with pytest.raises(AuthenticationError):
        auth.validate(token.token)


def test_missing_token_rejected():
    auth = AuthService()
    with pytest.raises(AuthenticationError):
        auth.validate(None)
    with pytest.raises(AuthenticationError):
        auth.validate("made-up")


def test_each_login_issues_its_own_live_token():
    auth = AuthService()
    auth.create_account("alice", "pw")
    first = auth.login("alice", "pw")
    second = auth.login("alice", "pw")
    assert first.token != second.token
    assert auth.validate(first.token) == auth.validate(second.token) == "alice"


def test_an_expired_token_is_forgotten():
    clock = FakeClock()
    auth = AuthService(token_ttl=10.0, clock=clock)
    auth.create_account("alice", "pw")
    token = auth.login("alice", "pw")
    clock.t += 10  # the token dies at its expiry instant
    with pytest.raises(AuthenticationError, match="expired"):
        auth.validate(token.token)
    with pytest.raises(AuthenticationError, match="unknown"):
        auth.validate(token.token)


# -- the interceptor's rules, called directly ------------------------------------------


@pytest.fixture
def interceptor():
    metadata = MemoryMetadataBackend()
    auth = AuthService()
    tokens = {}
    for user in ("alice", "bob", "carol"):
        metadata.create_user(user)
        auth.create_account(user, "pw")
        tokens[user] = auth.login(user, "pw").token
    metadata.create_workspace(Workspace(workspace_id="ws-alice", owner="alice"))
    metadata.grant_access("ws-alice", "bob")
    check = sync_auth_interceptor(auth, metadata)
    return lambda user, method, args=(), kwargs=None: check(
        method, args, kwargs or {}, {"auth_token": tokens.get(user)}
    )


@pytest.mark.parametrize(
    "user, method, args, kwargs, error",
    [
        ("alice", "get_workspaces", ("alice",), None, None),
        ("bob", "get_workspaces", (), {"user_id": "alice"}, AuthorizationError),
        ("carol", "create_workspace", ("ws-c", "carol"), None, None),
        ("carol", "create_workspace", (), {"workspace_id": "ws-x", "owner": "alice"},
         AuthorizationError),
        ("alice", "share_workspace", ("ws-alice", "carol"), None, None),
        ("bob", "share_workspace", ("ws-alice", "carol"), None, AuthorizationError),
        ("bob", "commit_request", ("ws-alice", "dev", [], "r"), None, None),
        ("carol", "get_changes", (), {"workspace_id": "ws-alice"}, AuthorizationError),
        ("nobody", "get_changes", ("ws-alice",), None, AuthenticationError),
    ],
    ids=[
        "list-own", "list-other", "create-own", "create-for-other", "share-owned",
        "share-granted-not-owned", "commit-granted", "read-no-access", "no-token",
    ],
)
def test_interceptor_rules(interceptor, user, method, args, kwargs, error):
    if error is None:
        assert interceptor(user, method, args, kwargs) is None
    else:
        with pytest.raises(error):
            interceptor(user, method, args, kwargs)


# -- secured SyncService over ObjectMQ ---------------------------------------------------


@pytest.fixture
def secured():
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    auth = AuthService()
    for user in ("alice", "bob"):
        metadata.create_user(user)
        auth.create_account(user, f"{user}-pw")
    workspace = Workspace(workspace_id="ws-alice", owner="alice")
    metadata.create_workspace(workspace)

    server = Broker(mom)
    service = SyncService(metadata, server)
    server.bind(
        SYNC_SERVICE_OID,
        service,
        interceptors=[sync_auth_interceptor(auth, metadata)],
    )
    client = Broker(mom)
    proxy = client.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    yield auth, metadata, client, proxy
    client.close()
    server.close()
    mom.close()


def test_valid_token_passes(secured):
    auth, _metadata, client, proxy = secured
    token = auth.login("alice", "alice-pw")
    client.call_context["auth_token"] = token.token
    assert [w.workspace_id for w in proxy.get_workspaces("alice")] == ["ws-alice"]
    assert proxy.get_changes("ws-alice") == []


def test_missing_token_rejected_remotely(secured):
    _auth, _metadata, _client, proxy = secured
    with pytest.raises(RemoteInvocationError) as excinfo:
        proxy.get_workspaces("alice")
    assert "AuthenticationError" in str(excinfo.value)


def test_cannot_list_other_users_workspaces(secured):
    auth, _metadata, client, proxy = secured
    client.call_context["auth_token"] = auth.login("bob", "bob-pw").token
    with pytest.raises(RemoteInvocationError) as excinfo:
        proxy.get_workspaces("alice")
    assert "AuthorizationError" in str(excinfo.value)


def test_workspace_acl_enforced(secured):
    auth, metadata, client, proxy = secured
    client.call_context["auth_token"] = auth.login("bob", "bob-pw").token
    with pytest.raises(RemoteInvocationError):
        proxy.get_changes("ws-alice")
    # Granting access flips the decision.
    metadata.grant_access("ws-alice", "bob")
    assert proxy.get_changes("ws-alice") == []


def test_expired_token_rejected_remotely():
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    clock = FakeClock()
    auth = AuthService(token_ttl=10.0, clock=clock)
    metadata.create_user("alice")
    auth.create_account("alice", "pw")
    metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
    server = Broker(mom)
    server.bind(
        SYNC_SERVICE_OID,
        SyncService(metadata, server),
        interceptors=[sync_auth_interceptor(auth, metadata)],
    )
    client = Broker(mom)
    proxy = client.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    client.call_context["auth_token"] = auth.login("alice", "pw").token
    assert proxy.get_changes("ws") == []
    clock.t += 11
    with pytest.raises(RemoteInvocationError):
        proxy.get_changes("ws")
    client.close()
    server.close()
    mom.close()
