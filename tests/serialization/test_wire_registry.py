"""Tests for the WireRegistry DTO lowering/raising machinery."""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from repro.errors import SerializationError
from repro.serialization import BinarySerializer, JsonSerializer, WireRegistry
from repro.sync.models import (
    CommitNotification,
    CommitResult,
    ItemMetadata,
    Workspace,
)


@dataclass(frozen=True)
class Point:
    x: int
    y: int


def make_registry():
    registry = WireRegistry()
    registry.register(
        Point, "test.Point", lambda p: {"x": p.x, "y": p.y}, lambda d: Point(**d)
    )
    return registry


def test_lower_and_raise_round_trip():
    registry = make_registry()
    lowered = registry.lower(Point(1, 2))
    assert lowered == {"x": 1, "y": 2, "__wire__": "test.Point"}
    assert registry.raise_(lowered) == Point(1, 2)


def test_nested_containers():
    registry = make_registry()
    value = {"points": [Point(1, 2), Point(3, 4)], "other": 7}
    raised = registry.raise_(registry.lower(value))
    assert raised == value


def test_unknown_tag_raises():
    registry = make_registry()
    with pytest.raises(SerializationError):
        registry.raise_({"__wire__": "nope", "x": 1})


def test_a_plain_dict_holding_the_tag_key_is_escaped():
    registry = make_registry()
    for plain in ({"__wire__": ""}, {"__wire__": "test.Point", "x": 1, "y": 2}):
        lowered = registry.lower({"p": plain})
        assert lowered == {"p": {"__wire__": "dict", "dict": plain}}
        assert registry.raise_(lowered) == {"p": plain}
    with pytest.raises(ValueError, match="reserved"):
        registry.register(Point, "dict", lambda p: {}, lambda d: Point(0, 0))


def test_codecs_carry_registered_types():
    registry = make_registry()
    for codec in (JsonSerializer(registry), BinarySerializer(registry)):
        value = [Point(5, 6), {"p": Point(7, 8)}]
        assert codec.decode(codec.encode(value)) == value


def test_stacksync_models_round_trip_via_json():
    codec = JsonSerializer()
    item = ItemMetadata(
        item_id="ws:one.txt",
        workspace_id="ws",
        version=2,
        filename="one.txt",
        status="CHANGED",
        size=100,
        checksum="abc" * 8 + "abcdef01",
        chunks=["f1" * 20, "f2" * 20],
        modified_at=1.5,
        device_id="dev",
    )
    notification = CommitNotification(
        workspace_id="ws",
        source_device="dev",
        results=[
            CommitResult(metadata=item, confirmed=True),
            CommitResult(metadata=item, confirmed=False, current=replace(item, version=3)),
        ],
        committed_at=2.0,
        request_id="r1",
    )
    decoded = codec.decode(codec.encode(notification))
    assert decoded == notification
    assert decoded.results[1].current.version == 3


def test_workspace_round_trip_via_binary():
    codec = BinarySerializer()
    workspace = Workspace(workspace_id="ws1", owner="alice", name="files")
    assert codec.decode(codec.encode(workspace)) == workspace
