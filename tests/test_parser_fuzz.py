"""Fuzzing of the binary share/session parsers and the PBM reader.

Every malformed input must end in ``FormatError``: no other exception and
no warning.  Inputs are valid artifacts from both backends (among them
statevector sessions whose table entries have different supports),
truncated, overwritten byte by byte with the CRC recomputed so the parser
proper is reached, or given oversized header fields; and circuit assembly
text built from the dialect's own statements.  A share or session file
has one encoding: any byte edit that parses re-serializes to itself.
"""

import dataclasses
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvss.circuit import CircuitDescription, emit_assembly, parse_assembly
from qvss.errors import FormatError
from qvss.image_io import BinaryImage, read_pbm, write_pbm
from qvss.parity import ParitySpec, prepare_parity_state_direct
from qvss.protocol import (
    BACKEND_SAMPLED,
    BACKEND_STATEVECTOR,
    RegisterTable,
    deserialize_session,
    deserialize_share,
    measure,
    serialize_session,
    serialize_share,
    share_image,
)
from qvss.statevector import StateVector, basis_state

HEADER = struct.Struct("<4sBBHHII16s")
CRC_SIZE = 4
IMAGE = BinaryImage(5, 3, np.random.default_rng(1).integers(0, 2, size=15))


def _mixed_session(n):
    """A statevector session whose table entries have different supports
    and amplitude forms: a parity state, a basis state, a state
    with all 2^n amplitudes non-zero, the uniform superposition of all 2^n
    strings and the colour-1 parity state with a sign flipped on |0..010>.
    At n=2 each support has 4 pad bits."""
    session, _ = share_image(IMAGE, n, BACKEND_STATEVECTOR, 9)
    rng = np.random.default_rng(n)
    full = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    leak = prepare_parity_state_direct(ParitySpec(n, 1)).amplitudes.copy()
    leak[0b010] *= -1
    states = [
        prepare_parity_state_direct(ParitySpec(n, 0)),
        basis_state(n, 1),
        StateVector(n, full / np.linalg.norm(full)),
        StateVector(n, np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128)),
        StateVector(n, leak),
    ]
    table = RegisterTable(n, states, np.arange(IMAGE.pixel_count) % 5)
    return dataclasses.replace(session, registers=table)


def _artifacts():
    out = {}
    for backend in (BACKEND_STATEVECTOR, BACKEND_SAMPLED):
        session, shares = share_image(IMAGE, 3, backend, 9)
        out[f"{backend} share"] = (deserialize_share, serialize_share(shares[1]))
        out[f"{backend} session"] = (deserialize_session, serialize_session(session))
    for n in (2, 3):
        out[f"{BACKEND_STATEVECTOR} session, mixed supports, n={n}"] = (
            deserialize_session,
            serialize_session(_mixed_session(n)),
        )
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


def _collapsed(session, seed):
    """``session`` with its table replaced by one basis-state entry per
    distinct outcome that ``measure`` draws with ``seed``, ascending."""
    pixels = np.unpackbits(measure(session, seed), axis=1, count=session.pixel_count)
    outcomes = np.zeros(session.pixel_count, dtype=np.int64)
    for plane in pixels:
        outcomes = outcomes << 1 | plane
    values, inverse = np.unique(outcomes, return_inverse=True)
    states = [basis_state(session.n, v) for v in values.tolist()]
    return dataclasses.replace(session, registers=RegisterTable(session.n, states, inverse))


def _one_encoding_artifacts():
    """Files to edit byte by byte, and the writer that made each."""
    two_colour, _ = share_image(IMAGE, 3, BACKEND_STATEVECTOR, 9)
    black = BinaryImage(5, 3, np.ones(15, np.uint8))
    one_colour, _ = share_image(black, 3, BACKEND_STATEVECTOR, 9)
    recovered = _collapsed(two_colour, 10)
    assert len(recovered.registers.states) > 2
    even, odd = (prepare_parity_state_direct(ParitySpec(3, b)) for b in (0, 1))
    basis = basis_state(3, 0b101)
    unused = RegisterTable(3, [even, odd, basis], IMAGE.pixels)  # no pixel is entry 2
    three = RegisterTable(3, [even, odd, basis], np.arange(15) % 3)  # index value 3 is out
    sessions = {
        "two colours": two_colour,
        "one colour": one_colour,
        "recovered": recovered,
        "an unused entry": dataclasses.replace(two_colour, registers=unused),
        "three entries": dataclasses.replace(two_colour, registers=three),
    }
    for n in (3, 9):
        sessions[f"sampled, n={n}"] = share_image(IMAGE, n, BACKEND_SAMPLED, 9)[0]
    out = {
        f"{name} session": (deserialize_session, serialize_session, serialize_session(session))
        for name, session in sessions.items()
    }
    for backend in (BACKEND_STATEVECTOR, BACKEND_SAMPLED):
        share = share_image(IMAGE, 3, backend, 9)[1][1]
        out[f"{backend} share"] = (deserialize_share, serialize_share, serialize_share(share))
    return out


ONE_ENCODING = _one_encoding_artifacts()


@pytest.mark.parametrize("kind", sorted(ONE_ENCODING))
def test_every_byte_edit_is_rejected_or_re_serializes_to_itself(kind):
    parse, write, blob = ONE_ENCODING[kind]
    body = bytearray(blob[:-CRC_SIZE])
    for position, old in enumerate(blob[:-CRC_SIZE]):
        for value in {0, 1, 2, 0x80, 0xFF} - {old}:
            body[position] = value
            edited = recrc(bytes(body))
            parsed = parse_quietly(parse, edited)
            assert parsed is None or write(parsed) == edited, (position, value)
        body[position] = old


# Header field index -> the smallest value over its cap for a 5x3 image.
OVERSIZED = {"n": (3, None), "width": (5, 4097), "height": (6, 4097)}


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


#: Statements of the assembly dialect, well formed or not, to join at random.
ASSEMBLY_LINES = st.one_of(
    st.from_regex(r"\Aqreg q\[[0-9]{1,3}\];\Z"),
    st.from_regex(r"\A(h|x|z|cx|ccx|swap) q\[[0-9]{1,2}\](,q\[[0-9]{1,2}\]){0,3};\Z"),
    st.from_regex(r"\Ameasure q(\[[0-9]\])? ?-> ?c(\[[0-9]\])?;?\Z"),
    st.sampled_from(
        ["OPENQASM 2.0;", 'include "qelib1.inc";', "creg c[2];", "measure q -> c;", ""]
    ),
    st.text(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ASSEMBLY_LINES, max_size=6))
def test_assembly_text_parses_or_raises_format_error(lines):
    circuit = parse_quietly(parse_assembly, "\n".join(lines))
    if circuit is not None:
        assert isinstance(circuit, CircuitDescription)
        assert parse_assembly(emit_assembly(circuit)) == circuit
