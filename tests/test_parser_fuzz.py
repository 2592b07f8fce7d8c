"""Fuzzing of the binary share/session parsers and the PBM reader.

Every malformed input must end in ``FormatError``: no other exception and
no warning.  Inputs are valid artifacts from both backends, truncated,
overwritten byte by byte with the CRC recomputed so the parser proper is
reached, or given oversized header fields.
"""

import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvss.errors import FormatError
from qvss.image_io import BinaryImage, read_pbm, write_pbm
from qvss.protocol import (
    BACKEND_SAMPLED,
    BACKEND_STATEVECTOR,
    deserialize_session,
    deserialize_share,
    serialize_session,
    serialize_share,
    share_image,
)

HEADER = struct.Struct("<4sBBHHIII16s")
CRC_SIZE = 4
IMAGE = BinaryImage(5, 3, np.random.default_rng(1).integers(0, 2, size=15))


def _artifacts():
    out = {}
    for backend in (BACKEND_STATEVECTOR, BACKEND_SAMPLED):
        session, shares = share_image(IMAGE, 3, backend, 9)
        out[f"{backend} share"] = (deserialize_share, serialize_share(shares[1]))
        out[f"{backend} session"] = (deserialize_session, serialize_session(session))
    return out


ARTIFACTS = _artifacts()
KINDS = sorted(ARTIFACTS)
PBMS = [write_pbm(IMAGE, "p1"), write_pbm(IMAGE, "p4")]


def recrc(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(CRC_SIZE, "little")


def parse_quietly(parse, data: bytes):
    """Parse ``data``; any warning fails the test, as does any error but
    ``FormatError``.  Returns the parsed value, or None if rejected."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(data)
        except FormatError:
            return None


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_artifacts_are_rejected(kind, data):
    parse, blob = ARTIFACTS[kind]
    cut = data.draw(st.integers(0, len(blob) - 1))
    assert parse_quietly(parse, blob[:cut]) is None


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_overwritten_bytes_with_a_fixed_crc_parse_or_raise_format_error(kind, data):
    parse, blob = ARTIFACTS[kind]
    body = bytearray(blob[:-CRC_SIZE])
    edits = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(body) - 1), st.integers(0, 255)),
            min_size=1,
            max_size=8,
        )
    )
    for position, value in edits:
        body[position] = value
    parse_quietly(parse, recrc(bytes(body)))


# Header field index -> the smallest value over its cap for a 5x3 image.
OVERSIZED = {"n": (3, None), "pixels": (5, 16), "width": (6, 4097), "height": (7, 4097)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", sorted(OVERSIZED))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_oversized_header_fields_are_rejected(kind, field, data):
    parse, blob = ARTIFACTS[kind]
    index, low = OVERSIZED[field]
    if low is None:  # n: just over the backend's cap
        low = 17 if kind.startswith(BACKEND_STATEVECTOR) else 65
    width = 0xFFFF if field == "n" else 0xFFFFFFFF
    fields = list(HEADER.unpack_from(blob))
    fields[index] = data.draw(st.integers(low, width))
    body = HEADER.pack(*fields) + blob[HEADER.size : -CRC_SIZE]
    assert parse_quietly(parse, recrc(body)) is None


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_are_a_pbm_or_a_format_error(data):
    image = parse_quietly(read_pbm, data)
    assert image is None or isinstance(image, BinaryImage)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_pbms_parse_or_raise_format_error(data):
    pbm = bytearray(data.draw(st.sampled_from(PBMS)))
    cut = data.draw(st.integers(0, len(pbm)))
    edits = data.draw(
        st.lists(st.tuples(st.integers(0, len(pbm) - 1), st.integers(0, 255)), max_size=4)
    )
    for position, value in edits:
        pbm[position] = value
    parse_quietly(read_pbm, bytes(pbm[:cut]))


@settings(max_examples=50, deadline=None)
@given(
    magic=st.sampled_from([b"P1", b"P4"]),
    side=st.one_of(
        st.integers(4097, 10**6).map(str),
        st.integers(4301, 5000).map(lambda digits: "9" * digits),  # over int()'s limit
    ),
    which=st.sampled_from(["width", "height"]),
)
def test_oversized_pbm_sides_are_rejected(magic, side, which):
    width, height = (side, "1") if which == "width" else ("1", side)
    data = magic + f"\n{width} {height}\n".encode() + b"0\n"
    assert parse_quietly(read_pbm, data) is None
