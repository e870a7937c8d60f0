"""Codec tests: round-trip correctness across JSON, pickle and binary."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.serialization import (
    BinarySerializer,
    JsonSerializer,
    PickleSerializer,
    make_serializer,
)

CODECS = [JsonSerializer(), PickleSerializer(), BinarySerializer()]


@pytest.fixture(params=CODECS, ids=lambda c: c.name)
def codec(request):
    return request.param


SAMPLES = [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    -(2**40),
    3.14159,
    -0.0,
    "",
    "héllo wörld",
    b"",
    b"\x00\x01\xfe\xff",
    [],
    [1, 2, 3],
    {"a": 1, "b": [True, None, "x"]},
    {"nested": {"deep": {"bytes": b"\xde\xad"}}},
    # Plain data holding the wire tag key: json and binary escape it.
    {"__wire__": ""},
    {"__wire__": "x", "a": 1},
    {"__wire__": "dict", "dict": [{"__wire__": "stacksync.Workspace"}]},
    # Plain data shaped like json's bytes tag: json escapes it too.
    {"__bytes__": "x"},
    {"a": {"__bytes__": "y"}},
]


@pytest.mark.parametrize("value", SAMPLES, ids=repr)
def test_round_trip_samples(codec, value):
    assert codec.decode(codec.encode(value)) == value


def test_tuple_becomes_list(codec):
    # JSON/binary have no tuple type; pickle preserves it.  The RPC layer
    # only relies on sequences, so both behaviours are acceptable — but
    # they must at least match element-wise.
    result = codec.decode(codec.encode((1, 2)))
    assert list(result) == [1, 2]


def test_make_serializer_known_names():
    for name in ("json", "pickle", "binary"):
        assert make_serializer(name).name == name


def test_make_serializer_unknown_name():
    with pytest.raises(ValueError):
        make_serializer("xml")


def test_json_rejects_unserializable():
    with pytest.raises(SerializationError):
        JsonSerializer().encode(object())


def test_binary_rejects_unserializable():
    with pytest.raises(SerializationError):
        BinarySerializer().encode(object())


def test_binary_rejects_trailing_garbage():
    codec = BinarySerializer()
    data = codec.encode([1, 2])
    with pytest.raises(SerializationError):
        codec.decode(data + b"\x00")


def test_binary_rejects_truncation():
    codec = BinarySerializer()
    data = codec.encode("a long enough string")
    with pytest.raises(SerializationError):
        codec.decode(data[:-3])


def test_json_decode_garbage():
    with pytest.raises(SerializationError):
        JsonSerializer().decode(b"\xff\xfe not json")


@pytest.mark.parametrize(
    "body",
    [
        b'{"__bytes__": 5}',
        b'{"__bytes__": "\\u0100"}',
        b'{"__wire__": "dict", "dict": 3}',
        b'{"__wire__": "dict"}',
        b'{"__wire__": "stacksync.CommitResult"}',
    ],
)
def test_json_malformed_tags_raise_serialization_error(body):
    # Not AttributeError or KeyError: callers catch ObjectMqError.
    with pytest.raises(SerializationError):
        JsonSerializer().decode(body)


@pytest.mark.parametrize(
    "tagged",
    [
        {"__wirX__": "dict", "dict": 3},
        {"__wirX__": "dict"},
        {"__wirX__": "stacksync.CommitResult"},
    ],
)
def test_binary_malformed_tags_raise_serialization_error(tagged):
    codec = BinarySerializer()
    # The encoder escapes any dict holding "__wire__", so build the body
    # from a same-length key and swap it in.
    data = codec.encode(tagged).replace(b"__wirX__", b"__wire__")
    with pytest.raises(SerializationError):
        codec.decode(data)


def test_binary_more_compact_than_json_on_rpc_envelope():
    envelope = {
        "method": "commit_request",
        "args": [["ws-1", "dev-2", [{"item_id": "a" * 30, "version": 3}]]],
        "kwargs": {},
        "call": "async",
        "multi": False,
        "correlation_id": "c" * 32,
        "reply_to": "response.abcdef",
        "sent_at": 1234567890.123,
    }
    json_size = len(JsonSerializer().encode(envelope))
    binary_size = len(BinarySerializer().encode(envelope))
    assert binary_size < json_size


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(value=json_values)
def test_property_binary_round_trip(value):
    codec = BinarySerializer()
    assert codec.decode(codec.encode(value)) == value


@settings(max_examples=150, deadline=None)
@given(value=json_values)
def test_property_json_round_trip(value):
    codec = JsonSerializer()
    assert codec.decode(codec.encode(value)) == value


@settings(max_examples=100, deadline=None)
@given(value=st.floats(allow_nan=True, allow_infinity=True))
def test_property_binary_floats(value):
    codec = BinarySerializer()
    result = codec.decode(codec.encode(value))
    if math.isnan(value):
        assert math.isnan(result)
    else:
        assert result == value
