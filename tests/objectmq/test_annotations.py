"""Tests for the invocation decorators and @remote_interface validation."""

from __future__ import annotations

import pytest

from repro.errors import NotARemoteInterface
from repro.objectmq import (
    Remote,
    async_method,
    interface_specs,
    multi_method,
    remote_interface,
    sync_method,
)


def test_async_method_spec():
    @remote_interface
    class Api(Remote):
        @async_method
        def fire(self):
            ...

    spec = interface_specs(Api)["fire"]
    assert spec.kind == "async"
    assert not spec.multi


def test_sync_method_bare_and_parameterised():
    @remote_interface
    class Api(Remote):
        @sync_method
        def a(self):
            ...

        @sync_method(timeout=2.5, retry=7)
        def b(self):
            ...

    specs = interface_specs(Api)
    assert specs["a"].kind == "sync"
    assert specs["b"].timeout == 2.5
    assert specs["b"].retry == 7


def test_multi_method_defaults_to_async():
    @remote_interface
    class Api(Remote):
        @multi_method
        def notify(self):
            ...

    spec = interface_specs(Api)["notify"]
    assert spec.multi and spec.kind == "async"


@pytest.mark.parametrize("order", ["multi_first", "multi_last"])
def test_multi_composes_with_sync_in_any_order(order):
    if order == "multi_first":

        @remote_interface
        class Api(Remote):
            @multi_method
            @sync_method(timeout=0.9, retry=1)
            def poll(self):
                ...

    else:

        @remote_interface
        class Api(Remote):
            @sync_method(timeout=0.9, retry=1)
            @multi_method
            def poll(self):
                ...

    spec = interface_specs(Api)["poll"]
    assert spec.multi and spec.kind == "sync"
    assert spec.timeout == 0.9


def test_undecorated_public_method_rejected():
    with pytest.raises(NotARemoteInterface):

        @remote_interface
        class Api(Remote):
            def naked(self):
                ...


def test_private_methods_ignored():
    @remote_interface
    class Api(Remote):
        @async_method
        def ok(self):
            ...

        def _helper(self):
            ...

    assert set(interface_specs(Api)) == {"ok"}


def test_interface_specs_requires_decoration():
    class Plain:
        pass

    with pytest.raises(NotARemoteInterface):
        interface_specs(Plain)


def test_paper_sync_service_signature():
    """The paper's Fig 6 declarations map 1:1 onto our decorators."""

    @remote_interface
    class SyncServiceLike(Remote):
        @sync_method(retry=5, timeout=1.5)
        def get_changes(self, workspace):
            ...

        @sync_method(retry=5, timeout=1.5)
        def get_workspaces(self):
            ...

        @async_method
        def commit_request(self, workspace, objects_changed):
            ...

    specs = interface_specs(SyncServiceLike)
    assert specs["get_changes"].retry == 5
    assert specs["get_changes"].timeout == 1.5
    assert specs["commit_request"].kind == "async"
