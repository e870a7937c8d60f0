"""Exception hierarchy shared across the reproduction.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch a single base type at the API boundary while tests can assert precise
failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Messaging layer (repro.mom)
# ---------------------------------------------------------------------------

class MomError(ReproError):
    """Base class for message-oriented-middleware failures."""


class QueueNotFound(MomError):
    """A queue name was referenced before being declared."""


class ExchangeNotFound(MomError):
    """An exchange name was referenced before being declared."""


class BrokerClosed(MomError):
    """The broker was shut down while an operation was in flight."""


class DeliveryError(MomError):
    """A message could not be routed to any queue."""


class DuplicateConsumer(MomError):
    """A consumer tag was registered twice on the same queue."""


# ---------------------------------------------------------------------------
# ObjectMQ layer
# ---------------------------------------------------------------------------

class ObjectMqError(ReproError):
    """Base class for ObjectMQ middleware failures."""


class RemoteTimeout(ObjectMqError):
    """A @SyncMethod call exhausted its retries without receiving a reply."""


class RemoteInvocationError(ObjectMqError):
    """The remote object raised an exception while executing an RPC."""

    def __init__(self, method: str, remote_repr: str):
        super().__init__(f"remote invocation of {method!r} failed: {remote_repr}")
        self.method = method
        self.remote_repr = remote_repr


class NotARemoteInterface(ObjectMqError):
    """lookup() was given a class not decorated with @remote_interface."""


class BindingError(ObjectMqError):
    """bind() was asked to bind an object that does not match its interface."""


class SerializationError(ObjectMqError):
    """A payload could not be encoded or decoded by the active codec."""


# ---------------------------------------------------------------------------
# Synchronization service layer
# ---------------------------------------------------------------------------

class SyncError(ReproError):
    """Base class for StackSync protocol failures."""


class CommitConflict(SyncError):
    """A commit proposed changes over a stale version (informational)."""


class UnknownWorkspace(SyncError):
    """An operation referenced a workspace the metadata back-end ignores."""


class StorageError(ReproError):
    """Base class for object-storage back-end failures."""


class ObjectNotFound(StorageError):
    """GET for a chunk fingerprint that was never uploaded."""


class MetadataError(ReproError):
    """Base class for metadata back-end failures."""


# ---------------------------------------------------------------------------
# Security layer
# ---------------------------------------------------------------------------

class AuthError(ReproError):
    """Base class for authentication/authorization failures."""


class AuthenticationError(AuthError):
    """Missing, invalid, expired or revoked credentials."""


class AuthorizationError(AuthError):
    """Valid identity, insufficient rights for the requested operation."""


# ---------------------------------------------------------------------------
# Elasticity / provisioning layer
# ---------------------------------------------------------------------------

class ProvisioningError(ReproError):
    """Base class for provisioning framework failures."""


class NoCapacityModel(ProvisioningError):
    """A provisioner was asked for a decision before observing any data."""
