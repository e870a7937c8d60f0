"""Tests for the compression codecs and fingerprinters."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import (
    Bzip2Compressor,
    GzipCompressor,
    NullCompressor,
    make_compressor,
    make_fingerprinter,
    sha1_fingerprint,
    sha256_fingerprint,
)

COMPRESSORS = [GzipCompressor(), Bzip2Compressor(), NullCompressor()]


@pytest.fixture(params=COMPRESSORS, ids=lambda c: c.name)
def compressor(request):
    return request.param


def test_round_trip(compressor):
    data = b"hello " * 1000 + b"\x00\xff"
    assert compressor.decompress(compressor.compress(data)) == data


def test_round_trip_empty(compressor):
    assert compressor.decompress(compressor.compress(b"")) == b""


def test_compressible_data_shrinks():
    data = b"repetition " * 10_000
    assert len(GzipCompressor().compress(data)) < len(data) / 5
    assert len(Bzip2Compressor().compress(data)) < len(data) / 5


def test_null_is_identity():
    data = b"anything"
    assert NullCompressor().compress(data) is data


def test_registry():
    assert make_compressor("gzip").name == "gzip"
    assert make_compressor("bzip2").name == "bzip2"
    assert make_compressor("null").name == "null"
    with pytest.raises(ValueError):
        make_compressor("zstd")


def test_sha1_matches_hashlib():
    data = b"fingerprint me"
    assert sha1_fingerprint(data) == hashlib.sha1(data).digest()
    assert len(sha1_fingerprint(data)) == 20  # paper: "the 20 bytes of its SHA1 hash"


def test_sha256_fingerprint():
    data = b"x"
    assert sha256_fingerprint(data) == hashlib.sha256(data).digest()


def test_fingerprinter_registry():
    assert make_fingerprinter("sha1") is sha1_fingerprint
    with pytest.raises(ValueError):
        make_fingerprinter("md5")


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=10_000))
def test_property_gzip_round_trip(data):
    codec = GzipCompressor()
    assert codec.decompress(codec.compress(data)) == data


@settings(max_examples=50, deadline=None)
@given(a=st.binary(max_size=200), b=st.binary(max_size=200))
def test_property_fingerprint_injective_in_practice(a, b):
    if a != b:
        assert sha1_fingerprint(a) != sha1_fingerprint(b)
    else:
        assert sha1_fingerprint(a) == sha1_fingerprint(b)
