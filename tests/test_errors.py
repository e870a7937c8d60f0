"""Tests for the exception hierarchy: every error is a ReproError."""

from __future__ import annotations

import inspect

import pytest

from repro import errors


def all_error_classes():
    return [
        obj
        for _name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception) and obj.__module__ == "repro.errors"
    ]


def test_every_error_subclasses_repro_error():
    for cls in all_error_classes():
        assert issubclass(cls, errors.ReproError), cls.__name__


def test_layer_base_classes():
    assert issubclass(errors.QueueNotFound, errors.MomError)
    assert issubclass(errors.RemoteTimeout, errors.ObjectMqError)
    assert issubclass(errors.CommitConflict, errors.SyncError)
    assert issubclass(errors.ObjectNotFound, errors.StorageError)
    assert issubclass(errors.AuthenticationError, errors.AuthError)
    assert issubclass(errors.AuthorizationError, errors.AuthError)
    assert issubclass(errors.NoCapacityModel, errors.ProvisioningError)


def test_remote_invocation_error_carries_context():
    error = errors.RemoteInvocationError("commit_request", "ValueError: boom")
    assert error.method == "commit_request"
    assert "commit_request" in str(error)
    assert "boom" in str(error)


def test_catching_the_base_covers_everything():
    with pytest.raises(errors.ReproError):
        raise errors.DeliveryError("x")
    with pytest.raises(errors.ReproError):
        raise errors.AuthorizationError("y")
