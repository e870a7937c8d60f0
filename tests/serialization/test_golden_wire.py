"""Golden bytes: fixed DTOs encode, in every codec, to recorded bytes.

``golden_wire.json`` holds the pickle, json and binary encodings of four
items, a notification and a ``commit_request`` envelope, as recorded from
the model that kept an item's checksum and each chunk as bytes objects of
their own.  How a DTO is stored in memory is not wire format: a change to
the storage must reproduce these bytes exactly.  Only a deliberate wire
change (with a new code) re-records them::

    PYTHONPATH=src python tests/serialization/test_golden_wire.py > tests/serialization/golden_wire.json
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.objectmq.envelope import make_request
from repro.serialization import BinarySerializer, JsonSerializer, PickleSerializer
from repro.sync.models import (
    STATUS_CHANGED,
    STATUS_DELETED,
    STATUS_NEW,
    CommitNotification,
    CommitResult,
    ItemMetadata,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_wire.json")
WORKSPACE, DEVICE, PATH = "ws-golden-00", "dev-golden", "dir-01/file-00000001.dat"
REQUEST_ID = "0123456789abcdef" * 2
CODECS = {"pickle": PickleSerializer(), "json": JsonSerializer(), "binary": BinarySerializer()}


def _item(version, status, checksum, chunks, size=4096):
    """Digests given as hex, so that no two values share a bytes object."""
    return ItemMetadata(
        workspace_id=WORKSPACE, version=version, filename=PATH, status=status,
        size=size, checksum=checksum, chunks=chunks,
        modified_at=1_400_000_000.5 + version, device_id=DEVICE,
    )


def items():
    """name -> item, each built afresh."""
    return {
        "distinct-checksum-one-chunk": _item(2, STATUS_CHANGED, "a1" * 20, ["b2" * 20]),
        "checksum-is-the-sole-chunk": _item(1, STATUS_NEW, "c3" * 20, ["c3" * 20]),
        "deleted-no-chunks": _item(3, STATUS_DELETED, "", [], size=0),
        "three-32-byte-chunks": _item(
            4, STATUS_CHANGED, "d4" * 32, ["e5" * 32, "f6" * 32, "07" * 32], size=3 << 20
        ),
    }


def dtos():
    """name -> DTO: the items, then a notification and an envelope of them."""
    first, *rest = items().values()
    stored = _item(5, STATUS_CHANGED, "18" * 20, ["29" * 20])
    notification = CommitNotification(
        WORKSPACE, DEVICE,
        [CommitResult(first, False, current=stored), *(CommitResult(m, True) for m in rest)],
        1_400_000_009.25, REQUEST_ID,
    )
    request = make_request(
        "commit_request", [WORKSPACE, DEVICE, list(items().values())],
        {"request_id": REQUEST_ID}, call="async", multi=False,
    )
    return {**items(), "notification": notification, "commit-request": request}


def encodings(dto) -> dict:
    """*dto* in each codec: json as its text, pickle and binary as hex."""
    out = {name: codec.encode(dto) for name, codec in CODECS.items()}
    return {name: body.decode() if name == "json" else body.hex() for name, body in out.items()}


@pytest.mark.parametrize("name", list(dtos()))
def test_encodings_match_the_recorded_bytes(name):
    dto = dtos()[name]
    assert encodings(dto) == json.loads(GOLDEN.read_text())[name]
    for codec_name, codec in CODECS.items():
        assert codec.decode(codec.encode(dto)) == dto, codec_name


if __name__ == "__main__":
    print(json.dumps({name: encodings(dto) for name, dto in dtos().items()}, indent=1))
