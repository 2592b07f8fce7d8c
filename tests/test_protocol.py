import dataclasses
import hashlib
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from qvss import protocol, statevector
from qvss.errors import (
    FormatError,
    IncompleteSharesError,
    IntegrityError,
    StateCorruptionError,
)
from qvss.image_io import BinaryImage, from_pixel_list
from qvss.parity import (
    ParitySpec,
    enumerate_parity_basis,
    prepare_parity_state_direct,
    xor_decode_classical,
)
from qvss.protocol import (
    BACKEND_SAMPLED,
    BACKEND_STATEVECTOR,
    MAX_SESSION_TABLE_BYTES,
    RegisterTable,
    audit_subset,
    deserialize_session,
    deserialize_share,
    measure,
    pixel_rng,
    recover_image,
    serialize_session,
    serialize_share,
    share_image,
)
from qvss.statevector import (
    StateVector,
    _checked_probabilities,
    basis_state,
    marginal_distribution,
    measure_all,
)

DEMO_IMAGE = from_pixel_list(4, 1, [0, 1, 1, 0])


def random_image(width, height, seed):
    rng = np.random.default_rng(seed)
    return BinaryImage(width, height, rng.integers(0, 2, size=width * height))


def _rows(session):
    """A sampled session's bits as a (pixels, n) matrix: row l-1 is pixel
    l's outcome, column j-1 participant j's bits."""
    return np.unpackbits(session.registers, axis=1, count=session.pixel_count).T


def _with_register(table, pixels, state):
    """``table`` with ``state`` as a new last entry that ``pixels`` point at."""
    index = table.index.astype(np.uint32)
    index[pixels] = len(table.states)
    return RegisterTable(table.n, [*table.states, state], index)


def _outcomes(planes, pixels):
    """Each pixel's basis index read off ``measure``'s planes, plane 1's
    bit the most significant."""
    outcomes = np.zeros(pixels, dtype=np.int64)
    for plane in np.unpackbits(planes, axis=1, count=pixels):
        outcomes = outcomes << 1 | plane
    return outcomes


def _collapsed_table(n, outcomes):
    """One basis-state entry per distinct outcome, ascending, and each
    pixel's rank among them: the table a measurement once left behind."""
    values, inverse = np.unique(outcomes, return_inverse=True)
    return RegisterTable(n, [basis_state(n, v) for v in values.tolist()], inverse)


def _collapsed(session, seed):
    """``session`` with the collapsed table of ``measure``'s outcomes."""
    outcomes = _outcomes(measure(session, seed), session.pixel_count)
    return dataclasses.replace(session, registers=_collapsed_table(session.n, outcomes))


# --- sharing ---


def test_share_statevector_states_follow_pixel_colors():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    assert len(shares) == 3
    table = session.registers
    for l, expected_b in zip(range(1, 5), [0, 1, 1, 0]):
        expected = prepare_parity_state_direct(ParitySpec(3, expected_b))
        np.testing.assert_allclose(
            table.states[table.index[l - 1]].amplitudes, expected.amplitudes, atol=1e-15
        )


def test_share_sampled_bits_have_pixel_parity():
    image = from_pixel_list(1, 1, [0])
    session, shares = share_image(image, 2, BACKEND_SAMPLED, 7)
    x1, x2 = shares[0].payload[0], shares[1].payload[0]
    assert x1 ^ x2 == 0


def test_share_is_deterministic():
    image = random_image(16, 16, seed=3)
    _, first = share_image(image, 4, BACKEND_SAMPLED, 1234)
    _, second = share_image(image, 4, BACKEND_SAMPLED, 1234)
    assert [serialize_share(a) for a in first] == [serialize_share(b) for b in second]


def test_share_differs_across_seeds():
    image = random_image(16, 16, seed=3)
    _, first = share_image(image, 4, BACKEND_SAMPLED, 1)
    _, second = share_image(image, 4, BACKEND_SAMPLED, 2)
    assert serialize_share(first[0]) != serialize_share(second[0])


@pytest.mark.parametrize("n,backend", [(1, BACKEND_STATEVECTOR), (17, BACKEND_STATEVECTOR), (65, BACKEND_SAMPLED)])
def test_share_rejects_out_of_range_n(n, backend):
    with pytest.raises(ValueError):
        share_image(DEMO_IMAGE, n, backend, 0)


def test_share_rejects_unknown_backend():
    with pytest.raises(ValueError):
        share_image(DEMO_IMAGE, 3, "density", 0)


def test_sampled_backend_supports_many_participants():
    session, shares = share_image(from_pixel_list(2, 1, [1, 0]), 64, BACKEND_SAMPLED, 5)
    assert len(shares) == 64
    recovered = recover_image(shares, session)
    assert recovered == from_pixel_list(2, 1, [1, 0])


# --- recovery ---


def test_recover_statevector_round_trip():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    assert recover_image(shares, session, 9) == DEMO_IMAGE


def test_recover_pixel_colors():
    assert xor_decode_classical((0, 0, 0)) == 0
    assert xor_decode_classical((1, 0, 0)) == 1
    assert xor_decode_classical((1, 1, 0)) == 0
    assert xor_decode_classical((0, 1, 1, 0)) == 0


def test_recover_sampled_xors_share_bits():
    session, shares = share_image(DEMO_IMAGE, 6, BACKEND_SAMPLED, 11)
    recovered = recover_image(shares, session)
    assert recovered == DEMO_IMAGE
    for l in range(1, 5):
        bits = tuple(np.unpackbits(share.payload, count=4)[l - 1] for share in shares)
        assert xor_decode_classical(bits) == DEMO_IMAGE.pixel(l)


def test_recover_refuses_missing_share():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    with pytest.raises(IncompleteSharesError):
        recover_image(shares[:2], session, 9)


def test_recover_refuses_duplicate_participant():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    with pytest.raises(IntegrityError):
        recover_image([shares[0], shares[0], shares[1]], session, 9)


def test_recover_refuses_foreign_share():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    _, other = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 43)
    with pytest.raises(IntegrityError):
        recover_image([shares[0], shares[1], other[2]], session, 9)


def test_measure_gives_each_pixel_an_outcome_in_its_registers_support():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    planes = measure(session, 9)
    assert planes.dtype == np.uint8 and planes.shape == (3, 1)
    assert not (planes[:, 0] & 0x0F).any()  # 4 pixels, 4 zero pad bits
    for register, outcome in zip(session.registers, _outcomes(planes, 4).tolist()):
        assert np.abs(register.amplitudes[outcome]) ** 2 > 1e-15


def test_measure_refuses_a_sampled_session():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_SAMPLED, 42)
    with pytest.raises(ValueError, match="sampled session was measured when it was shared"):
        measure(session, 9)


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_recovery_leaves_the_session_as_its_file_reads(backend):
    image = random_image(24, 20, seed=7)
    session, shares = share_image(image, 6, backend, 3)
    data = serialize_session(session)
    assert recover_image(shares, session, 4) == image
    if backend == BACKEND_STATEVECTOR:
        measure(session, 4)
    assert session == deserialize_session(data)
    assert serialize_session(session) == data


@settings(max_examples=15, deadline=None)
@given(
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    backend=st.sampled_from([BACKEND_STATEVECTOR, BACKEND_SAMPLED]),
)
def test_round_trip_property(width, height, n, seed, backend):
    image = random_image(width, height, seed)
    session, shares = share_image(image, n, backend, seed)
    assert recover_image(shares, session, seed + 1) == image


# --- Theorem 1: full cooperation always recovers ---


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("b", [0, 1])
def test_every_enumerated_outcome_decodes_to_secret(n, b):
    for bits in enumerate_parity_basis(ParitySpec(n, b)):
        assert xor_decode_classical(bits) == b


@pytest.mark.parametrize("b", [0, 1])
def test_measured_outcomes_always_decode_to_secret(b):
    state = prepare_parity_state_direct(ParitySpec(5, b))
    rng = np.random.default_rng(1000 + b)
    for _ in range(500):
        outcome, _ = measure_all(state, rng)
        assert xor_decode_classical(outcome) == b


# --- Theorem 2: proper subsets see uniform noise ---


@pytest.mark.parametrize("n", range(2, 7))
def test_proper_subset_marginals_uniform_and_color_blind(n):
    from itertools import combinations

    states = {
        b: prepare_parity_state_direct(ParitySpec(n, b)) for b in (0, 1)
    }
    for k in range(1, n):
        for subset in combinations(range(1, n + 1), k):
            uniform = 1.0 / (1 << k)
            margs = {
                b: marginal_distribution(states[b], subset).probabilities
                for b in (0, 1)
            }
            for b in (0, 1):
                assert np.abs(margs[b] - uniform).max() < 1e-12
            np.testing.assert_allclose(margs[0], margs[1], atol=1e-12)


# --- audits ---


def test_audit_single_qubit_subset():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    report = audit_subset(session, [2])
    np.testing.assert_allclose(report.distribution, [0.5, 0.5], atol=1e-15)
    assert report.max_deviation < 1e-12
    assert report.verdict == "no-information"


def test_audit_full_subset_reports_recovery():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    report = audit_subset(session, [1, 2, 3])
    assert report.verdict == "full-recovery"
    # support only on parity strings: aggregated over a mix of white and
    # black pixels every pattern appears, but each pixel's marginal is
    # confined to its own parity class
    table = session.registers
    per_pixel = marginal_distribution(table.states[table.index[0]], (1, 2, 3)).probabilities
    assert np.count_nonzero(per_pixel > 1e-15) == 4


def _uniform_session(n=3, side=8):
    """A session whose one entry is the uniform superposition of all 2^n
    strings: no pixel's outcome parity is fixed."""
    image = random_image(side, side, seed=4)
    session, shares = share_image(image, n, BACKEND_STATEVECTOR, 5)
    uniform = StateVector(n, np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128))
    table = RegisterTable(n, [uniform], np.zeros(image.pixel_count, dtype=np.uint8))
    return dataclasses.replace(session, registers=table), shares, image


def test_a_full_set_audit_reads_full_recovery_only_if_every_entry_has_one_parity():
    session, shares, image = _uniform_session()
    report = audit_subset(session, [1, 2, 3])
    assert report.verdict == "unreliable-recovery"
    np.testing.assert_allclose(report.distribution, np.full(8, 1 / 8), atol=1e-15)
    assert audit_subset(session, [3, 1]).verdict == "no-information"
    assert recover_image(shares, session, 1) != image
    # Measured, every pixel holds a basis state: one parity each.
    assert audit_subset(_collapsed(session, 1), [1, 2, 3]).verdict == "full-recovery"
    # A biased basis entry decodes to one colour, so it is reliable too.
    assert audit_subset(tampered_session()[0], [1, 2, 3]).verdict == "full-recovery"


@pytest.mark.parametrize("n", [2, 5, 8, 9, 16])
def test_the_xor_of_the_measured_planes_is_the_recovered_image(n):
    session, shares, image = _uniform_session(n, side=23)  # 529 pixels: 7 pad bits
    fresh = share_image(image, n, BACKEND_STATEVECTOR, 5)[0]
    for measured in (session, fresh):
        planes = measure(measured, 11)
        xor = np.unpackbits(np.bitwise_xor.reduce(planes, axis=0), count=image.pixel_count)
        np.testing.assert_array_equal(xor, recover_image(shares, measured, 11).pixels)
    assert recover_image(shares, fresh, 11) == image


def test_audit_five_of_six_uniform():
    image = from_pixel_list(2, 1, [0, 1])
    session, _ = share_image(image, 6, BACKEND_STATEVECTOR, 8)
    report = audit_subset(session, [1, 2, 3, 4, 5])
    np.testing.assert_allclose(report.distribution, np.full(32, 1 / 32), atol=1e-12)
    assert report.verdict == "no-information"


def test_audit_sampled_backend_chi_square():
    image = random_image(100, 100, seed=6)
    session, _ = share_image(image, 4, BACKEND_SAMPLED, 2025)
    report = audit_subset(session, [1, 2])
    assert report.p_value is not None and report.p_value > 0.001
    assert report.verdict == "no-information"


def test_audit_sampled_full_subset():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_SAMPLED, 2025)
    report = audit_subset(session, [1, 2, 3])
    assert report.verdict == "full-recovery"


def test_audit_detects_dishonest_dealer():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    # a dealer that leaks pixel colors through qubit 2
    from qvss.statevector import StateVector

    biased = np.zeros(8, dtype=np.complex128)
    biased[0b010] = 1.0
    table = _with_register(session.registers, 1, StateVector(3, biased))
    session = dataclasses.replace(session, registers=table)
    report = audit_subset(session, [2])
    assert report.verdict == "information-leak"


@pytest.mark.parametrize("subset", [[], [0], [4], [1, 1]])
def test_audit_rejects_bad_subsets(subset):
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    with pytest.raises(ValueError):
        audit_subset(session, subset)


# --- backend equivalence ---


def test_sampled_bits_match_exact_marginal():
    # Sampled share-bit patterns are draws from the statevector backend's
    # exact marginal; documented fixed seed 2025.
    image = random_image(100, 100, seed=12)
    session, _ = share_image(image, 4, BACKEND_SAMPLED, 2025)
    subset = (1, 2, 3)
    exact = marginal_distribution(
        prepare_parity_state_direct(ParitySpec(4, 0)), subset
    ).probabilities
    np.testing.assert_allclose(exact, 1 / 8, atol=1e-15)
    counts = np.zeros(8, dtype=int)
    for outcome in _rows(session):
        counts[(outcome[0] << 2) | (outcome[1] << 1) | outcome[2]] += 1
    result = chisquare(counts, f_exp=exact * image.pixel_count)
    assert result.pvalue > 0.001


# --- per-pixel rng derivation ---


def test_pixel_rng_is_order_independent():
    a = [pixel_rng(99, l).integers(0, 1 << 30) for l in (1, 2, 3)]
    b = [pixel_rng(99, l).integers(0, 1 << 30) for l in (3, 2, 1)]
    assert a == b[::-1]


def test_pixel_rng_streams_differ():
    draws = {int(pixel_rng(99, l).integers(0, 1 << 62)) for l in range(1, 50)}
    assert len(draws) == 49


# --- serialization ---


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_share_round_trip(backend):
    _, shares = share_image(DEMO_IMAGE, 3, backend, 42)
    for share in shares:
        assert deserialize_share(serialize_share(share)) == share


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_session_round_trip(backend):
    session, _ = share_image(DEMO_IMAGE, 3, backend, 42)
    restored = deserialize_session(serialize_session(session))
    assert restored.n == session.n
    assert restored.backend == session.backend
    assert restored.master_seed == session.master_seed
    assert restored.session_id == session.session_id
    assert (restored.width, restored.height) == (session.width, session.height)
    if backend == BACKEND_STATEVECTOR:
        for a, b in zip(restored.registers, session.registers):
            np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=0)
    else:
        np.testing.assert_array_equal(restored.registers, session.registers)


def test_recover_from_deserialized_artifacts():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    session2 = deserialize_session(serialize_session(session))
    shares2 = [deserialize_share(serialize_share(s)) for s in shares]
    assert recover_image(shares2, session2, 77) == DEMO_IMAGE


def test_share_header_layout():
    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = serialize_share(shares[0])
    assert data[:4] == b"QVSS"
    assert data[4] == 7  # version
    assert data[5] == 1  # statevector backend id
    assert int.from_bytes(data[6:8], "little") == 3  # n
    assert int.from_bytes(data[8:10], "little") == 1  # participant
    assert int.from_bytes(data[10:14], "little") == 4  # width
    assert int.from_bytes(data[14:18], "little") == 1  # height


def test_session_header_declares_width_and_height():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = serialize_session(session)
    assert data[:4] == b"QVSE"
    assert len(data) == 34 + 8 + 4 + 2 * (1 + 1 + 16) + 1 + 4  # no pixel count
    assert struct.unpack_from("<II", data, 10) == (4, 1)


def test_truncated_share_rejected():
    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = serialize_share(shares[0])
    with pytest.raises(FormatError):
        deserialize_share(data[: len(data) // 2])


def test_corrupted_share_names_checksum():
    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_share(shares[0]))
    data[20] ^= 0xFF
    with pytest.raises(FormatError) as err:
        deserialize_share(bytes(data))
    assert "checksum" in str(err.value)


def test_wrong_magic_named():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = serialize_session(session)
    with pytest.raises(FormatError) as err:
        deserialize_share(data)
    assert "magic" in str(err.value)


def test_unsupported_version_named():
    import zlib

    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_SAMPLED, 42)
    data = bytearray(serialize_share(shares[0])[:-4])
    data[4] = 9
    data += zlib.crc32(bytes(data)).to_bytes(4, "little")
    with pytest.raises(FormatError) as err:
        deserialize_share(bytes(data))
    assert "version" in str(err.value)


def test_truncated_session_rejected():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = serialize_session(session)
    with pytest.raises(FormatError):
        deserialize_session(data[:60])


def test_share_file_invariants_enforced():
    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    share = shares[0]
    # handle pointing at a foreign qubit is rejected on construction
    with pytest.raises(ValueError):
        dataclasses.replace(share, payload=tuple((l, 2) for l in range(1, 5)))


# --- register table sessions, payload-free statevector shares ---

# Header layout shared by shares and sessions: magic, version, backend, n,
# participant, width, height, session id.
HEADER_SIZE = struct.calcsize("<4sBBHHII16s")
SEED_SIZE = 8
TABLE_LENGTH_SIZE = 4
CRC_SIZE = 4


def recrc(blob: bytes) -> bytes:
    """Replace the CRC32 trailer so a crafted body reaches the parser."""
    body = blob[:-CRC_SIZE]
    return body + zlib.crc32(body).to_bytes(CRC_SIZE, "little")


def tampered_session():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    biased = np.zeros(8, dtype=np.complex128)
    biased[0b010] = 1.0
    table = _with_register(session.registers, 1, StateVector(3, biased))
    return dataclasses.replace(session, registers=table), shares


def test_statevector_session_bytes_do_not_scale_with_pixels_times_dim():
    n, side = 8, 64
    session, _ = share_image(random_image(side, side, seed=5), n, BACKEND_STATEVECTOR, 1)
    data = serialize_session(session)
    bound = HEADER_SIZE + 2 * (1 << n) * 16 + side * side * 1 + 64
    assert len(data) <= bound


def test_statevector_share_is_header_and_crc_only():
    _, shares = share_image(random_image(32, 32, seed=5), 4, BACKEND_STATEVECTOR, 1)
    for share in shares:
        assert share.payload == ()
        assert len(serialize_share(share)) == HEADER_SIZE + CRC_SIZE


def _as_version_1(blob: bytes) -> bytes:
    data = bytearray(blob)
    data[4] = 1
    return recrc(bytes(data))


def test_version_1_share_rejected():
    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    with pytest.raises(FormatError, match="format version 1"):
        deserialize_share(_as_version_1(serialize_share(shares[0])))


def test_version_1_session_rejected():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    with pytest.raises(FormatError, match="format version 1"):
        deserialize_session(_as_version_1(serialize_session(session)))


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
@pytest.mark.parametrize("slot", [1, 7, 256])
def test_a_session_with_a_non_zero_participant_slot_is_rejected(backend, slot):
    session, _ = share_image(DEMO_IMAGE, 3, backend, 42)
    data = bytearray(serialize_session(session))
    data[8:10] = slot.to_bytes(2, "little")
    message = f"session file participant slot is {slot}, expected 0"
    with pytest.raises(FormatError, match=message):
        deserialize_session(recrc(bytes(data)))


def test_tampered_table_entry_survives_session_file():
    session, _ = tampered_session()
    assert len(session.registers.states) == 3
    restored = deserialize_session(serialize_session(session))
    assert len(restored.registers.states) == 3
    a, b = restored.registers, session.registers
    np.testing.assert_array_equal(
        a.states[a.index[1]].amplitudes, b.states[b.index[1]].amplitudes
    )
    assert audit_subset(restored, [2]).verdict == "information-leak"


@pytest.mark.parametrize("tamper", [False, True])
@pytest.mark.parametrize("subset", [(1,), (2, 3), (3, 1), (1, 2, 3)])
def test_audit_matches_per_pixel_marginals(tamper, subset):
    if tamper:
        session, _ = tampered_session()
    else:
        session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    margs = [
        marginal_distribution(register, subset).probabilities
        for register in session.registers
    ]
    uniform = 1.0 / (1 << len(subset))
    report = audit_subset(session, subset)
    np.testing.assert_allclose(report.distribution, np.mean(margs, axis=0), atol=1e-12)
    expected_dev = max(float(np.abs(m - uniform).max()) for m in margs)
    assert abs(report.max_deviation - expected_dev) < 1e-12


def test_recover_and_measure_are_deterministic_under_seed():
    # Each pixel's outcome parity is random here, so the image is the draw's:
    # one seed gives one image and one set of planes, on one session or two.
    session, shares, _ = _uniform_session(n=5, side=12)
    image, planes = recover_image(shares, session, 99), measure(session, 99)
    for again in (session, _uniform_session(n=5, side=12)[0]):
        assert recover_image(shares, again, 99) == image
        np.testing.assert_array_equal(measure(again, 99), planes)
    assert recover_image(shares, session, 98) != image


def test_recovered_colors_are_parities_of_measured_outcomes():
    image = random_image(9, 7, seed=8)
    session, shares = share_image(image, 4, BACKEND_STATEVECTOR, 3)
    recovered = recover_image(shares, session, 5)
    outcomes = _outcomes(measure(session, 5), image.pixel_count)
    for l, outcome in enumerate(outcomes.tolist(), start=1):
        assert bin(outcome).count("1") % 2 == recovered.pixel(l)


def test_recover_rejects_corrupted_table_entry():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    corrupted = StateVector(3, np.full(8, 0.5, dtype=np.complex128))
    session = dataclasses.replace(
        session, registers=_with_register(session.registers, 0, corrupted)
    )
    with pytest.raises(StateCorruptionError):
        recover_image(shares, session, 9)


def test_session_rejects_table_length_beyond_payload():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_session(session))
    offset = HEADER_SIZE + SEED_SIZE
    data[offset : offset + TABLE_LENGTH_SIZE] = (2**32 - 1).to_bytes(4, "little")
    with pytest.raises(FormatError, match="register table length"):
        deserialize_session(recrc(bytes(data)))


def test_session_rejects_wrong_index_size():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = serialize_session(session)
    with pytest.raises(FormatError, match="register index holds 2 bytes"):
        deserialize_session(recrc(data[:-CRC_SIZE] + b"\x00" + data[-CRC_SIZE:]))


def test_session_rejects_index_value_beyond_table():
    session, _ = tampered_session()
    data = bytearray(serialize_session(session))
    # Two index planes of one byte: set both bits of pixel 4; 3 entries.
    data[-CRC_SIZE - 2] |= 0b0001_0000
    data[-CRC_SIZE - 1] |= 0b0001_0000
    with pytest.raises(FormatError, match="register index value 3"):
        deserialize_session(recrc(bytes(data)))


def test_session_rejects_table_entry_with_bad_norm():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_session(session))
    # Entry 0's first stored re, after its form byte and 8-bit support.
    offset = HEADER_SIZE + SEED_SIZE + TABLE_LENGTH_SIZE + 1 + 1
    data[offset : offset + 8] = struct.pack("<d", 2.0)
    with pytest.raises(FormatError, match="table entry 0 norm"):
        deserialize_session(recrc(bytes(data)))


@pytest.mark.parametrize("k", [17, 40, 64])
def test_audit_rejects_subsets_over_the_register_cap(k):
    # 2^k pattern bins: k=40 would need 8 TiB, k=64 exceeds numpy's limits.
    session, _ = share_image(random_image(4, 2, seed=1), 64, BACKEND_SAMPLED, 5)
    with pytest.raises(ValueError, match="capped at 16 participants"):
        audit_subset(session, range(1, k + 1))


def _outcomes_by_entry_masks(table, seed):
    """Reference draw: one mask per table entry, table order then pixel order."""
    rng = np.random.default_rng(seed)
    outcomes = np.empty(len(table), dtype=np.int64)
    for entry, count in enumerate(table.counts()):
        if count:
            state = table.states[entry]
            outcomes[table.index == entry] = rng.choice(
                state.dim, size=count, p=_checked_probabilities(state)
            )
    return outcomes


def test_recover_of_a_collapsed_session_matches_per_entry_masks():
    image = random_image(16, 12, seed=6)
    session, shares = share_image(image, 4, BACKEND_STATEVECTOR, 8)
    collapsed = _collapsed(session, 1).registers
    # Up to 16 basis-state entries, plus superpositions scattered among them
    # so that the draw order changes the outcomes.
    amplitudes = np.random.default_rng(2).normal(size=16) + 0j
    scattered = StateVector(4, amplitudes / np.linalg.norm(amplitudes))
    parity = [prepare_parity_state_direct(ParitySpec(4, b)) for b in (0, 1)]
    index = collapsed.index.astype(np.uint32)
    index[::5] = len(collapsed.states) + image.pixels[::5]
    index[3::7] = len(collapsed.states) + 2
    table = RegisterTable(4, [*collapsed.states, *parity, scattered], index)
    session = dataclasses.replace(session, registers=table)
    assert len(table.states) > 10

    outcomes = _outcomes(measure(session, 77), image.pixel_count)
    np.testing.assert_array_equal(outcomes, _outcomes_by_entry_masks(table, 77))
    parities = [bin(int(o)).count("1") & 1 for o in outcomes]
    np.testing.assert_array_equal(recover_image(shares, session, 77).pixels, parities)


def _mixed_table(session):
    """``session``'s fresh table plus a random superposition at every 5th
    pixel and the last basis state at every 7th from the 4th: entries whose
    pixels interleave, so the draw order changes the outcomes."""
    n = session.n
    rng = np.random.default_rng(n)
    amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    scattered = StateVector(n, amplitudes / np.linalg.norm(amplitudes))
    table = _with_register(session.registers, slice(None, None, 5), scattered)
    return _with_register(table, slice(3, None, 7), basis_state(n, (1 << n) - 1))


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("n", range(2, 17))
def test_measured_planes_are_the_outcomes_of_one_draw_per_entry(n, chunk, monkeypatch):
    image = random_image(30, 21, seed=n)  # 630 pixels: 2 pad bits, a short last chunk
    session, _ = share_image(image, n, BACKEND_STATEVECTOR, n)
    sampled = share_image(image, n, BACKEND_SAMPLED, 77)[0].registers
    if chunk:
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
    for table in (session.registers, _mixed_table(session)):
        measured = dataclasses.replace(session, registers=table)
        planes = measure(measured, 77)
        # As a sampled session's registers: shape, dtype and pad bits checked.
        dataclasses.replace(session, backend=BACKEND_SAMPLED, registers=planes)
        if table is session.registers:  # parity states: the sampled draw
            np.testing.assert_array_equal(planes, sampled)
        else:
            outcomes = _outcomes(planes, image.pixel_count)
            np.testing.assert_array_equal(outcomes, _outcomes_by_entry_masks(table, 77))


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", range(2, 17))
def test_measuring_parity_states_gives_the_sampled_share_of_the_image(n, seed, chunk, monkeypatch):
    image = random_image(29, 7, seed=n)  # 203 pixels: 5 pad bits, a short last chunk
    sampled = share_image(image, n, BACKEND_SAMPLED, seed)[0].registers
    if chunk:
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
    session, _ = share_image(image, n, BACKEND_STATEVECTOR, 3)
    np.testing.assert_array_equal(measure(session, seed), sampled)
    # A session file keeps both parity states bit for bit.
    restored = deserialize_session(serialize_session(session))
    np.testing.assert_array_equal(measure(restored, seed), sampled)


def _refuse_sample(monkeypatch):
    """Makes the per-entry draw raise, wherever it is looked up."""

    def refuse(*args):
        raise AssertionError("statevector.sample was called")

    monkeypatch.setattr(protocol, "sample", refuse)
    monkeypatch.setattr(statevector, "sample", refuse)


def test_a_parity_table_with_an_unused_entry_is_measured_as_the_sampled_share(monkeypatch):
    image = random_image(13, 11, seed=2)
    session, shares = share_image(image, 5, BACKEND_STATEVECTOR, 1)
    even, odd = session.registers.states
    uniform = StateVector(5, np.full(32, 32**-0.5, dtype=np.complex128))
    # Entries out of colour order, an equal copy of the odd state, and an
    # unused entry that is neither parity state.
    index = np.where(image.pixels == 1, 1, 2).astype(np.uint8)
    index[::3] = np.where(image.pixels[::3] == 1, 3, 2)
    copy = StateVector(5, odd.amplitudes.copy())
    table = RegisterTable(5, [uniform, odd, even, copy], index)
    assert table.counts()[0] == 0 and table.counts()[1:].all()
    session = dataclasses.replace(session, registers=table)
    _refuse_sample(monkeypatch)
    sampled = share_image(image, 5, BACKEND_SAMPLED, 9)[0].registers
    np.testing.assert_array_equal(measure(session, 9), sampled)
    assert recover_image(shares, session, 9) == image


def test_a_negated_parity_state_is_drawn_per_entry():
    # -1 times the odd state: the same outcome distribution, other amplitudes.
    image = random_image(13, 11, seed=2)
    session, shares = share_image(image, 5, BACKEND_STATEVECTOR, 1)
    even, odd = session.registers.states
    table = RegisterTable(5, [even, StateVector(5, -odd.amplitudes)], session.registers.index)
    session = dataclasses.replace(session, registers=table)
    planes = measure(session, 9)
    outcomes = _outcomes(planes, image.pixel_count)
    np.testing.assert_array_equal(outcomes, _outcomes_by_entry_masks(table, 9))
    assert not np.array_equal(planes, share_image(image, 5, BACKEND_SAMPLED, 9)[0].registers)
    assert recover_image(shares, session, 9) == image


@pytest.mark.parametrize("seed", [4, None])
@pytest.mark.parametrize("all_black", [False, True])  # all black: a one-entry table
def test_recovering_a_fresh_session_never_calls_sample(all_black, seed, monkeypatch):
    image = random_image(40, 30, seed=5)
    if all_black:
        image = BinaryImage(40, 30, np.ones(1200, dtype=np.uint8))
    session, shares = share_image(image, 8, BACKEND_STATEVECTOR, 2)
    _refuse_sample(monkeypatch)
    assert recover_image(shares, session, seed) == image
    restored = deserialize_session(serialize_session(session))
    assert recover_image(shares, restored, seed) == image
    if seed:
        sampled = share_image(image, 8, BACKEND_SAMPLED, seed)[0].registers
        np.testing.assert_array_equal(measure(restored, seed), sampled)


# --- array-native sampled backend ---

SAMPLED_KEY_TAG = 1 << 64


@pytest.mark.parametrize("n", [2, 3, 16, 63, 64])
def test_every_sampled_row_has_its_pixel_parity(n):
    image = random_image(37, 11, seed=n)
    session, shares = share_image(image, n, BACKEND_SAMPLED, 31)
    rows = _rows(session)
    assert rows.shape == (image.pixel_count, n)
    np.testing.assert_array_equal(np.bitwise_xor.reduce(rows, axis=1), image.pixels)
    for j, share in enumerate(shares):
        np.testing.assert_array_equal(
            np.unpackbits(share.payload, count=image.pixel_count), rows[:, j]
        )


def test_sampled_draw_equals_the_per_pixel_definition():
    image = random_image(7, 5, seed=2)
    n, seed = 10, 77
    session, _ = share_image(image, n, BACKEND_SAMPLED, seed)

    def rows(key):
        words = np.random.Philox(key=key).random_raw(image.pixel_count)
        out = []
        for word, color in zip(words.tolist(), image.pixels.tolist()):
            head = [(word >> (63 - i)) & 1 for i in range(n - 1)]
            out.append(head + [(sum(head) & 1) ^ color])
        return np.array(out, dtype=np.uint8)

    np.testing.assert_array_equal(_rows(session), rows(SAMPLED_KEY_TAG | seed))
    # The untagged Philox(key=seed) words are a different stream.
    assert not np.array_equal(_rows(session), rows(seed))


def test_sampled_top_rows_crop_gets_the_top_rows_of_the_bits():
    image = random_image(9, 7, seed=6)
    crop = BinaryImage(9, 3, image.pixels[:27])
    full, _ = share_image(image, 5, BACKEND_SAMPLED, 8)
    top, _ = share_image(crop, 5, BACKEND_SAMPLED, 8)
    np.testing.assert_array_equal(_rows(top), _rows(full)[:27])


# Written in format version 2 by the per-pixel tuple implementation (a 3x2
# image [0, 1, 1, 0, 1, 1] shared at n=3 with seed 5 on the sampled
# backend), and shown here as version 7 writes the same shares and session.
PARENT_SAMPLED_SHARES = [
    "515653530702030001000300000002000000c7ca004e31fc0c4ac8af2bef088baa36b0192f4da8",
    "515653530702030002000300000002000000c7ca004e31fc0c4ac8af2bef088baa36706ac0bd80",
    "515653530702030003000300000002000000c7ca004e31fc0c4ac8af2bef088baa36acd4455461",
]
PARENT_SAMPLED_SESSION = (
    "515653450702030000000300000002000000c7ca004e31fc0c4ac8af2bef088baa36"
    "0500000000000000b070ac6017c95b"
)
PARENT_SAMPLED_OUTCOMES = [
    (1, 0, 1), (0, 1, 0), (1, 1, 1), (1, 1, 0), (0, 0, 1), (0, 0, 1)
]


def test_sampled_files_from_the_tuple_implementation_still_recover():
    shares = [deserialize_share(bytes.fromhex(h)) for h in PARENT_SAMPLED_SHARES]
    session = deserialize_session(bytes.fromhex(PARENT_SAMPLED_SESSION))
    np.testing.assert_array_equal(_rows(session), PARENT_SAMPLED_OUTCOMES)
    image = from_pixel_list(3, 2, [0, 1, 1, 0, 1, 1])
    assert recover_image(shares, session, 1) == image
    assert [serialize_share(s).hex() for s in shares] == PARENT_SAMPLED_SHARES
    assert serialize_session(session).hex() == PARENT_SAMPLED_SESSION


# SHA-256 of the n share files then the session file, for a 64x48 random
# image shared at seed 2^64-1: the bits pinned on the parent of the change
# that unpacks each Philox word's row whole (2026-10-18), in format version 7.
PARENT_SAMPLED_SHA256 = {
    2: "3d96db666344dff0d0fa784f77ae12f874118ae68b7d8e47184c3f13bd010f22",
    3: "d91d9c416a2948d9e1401b07abe86e4f6a91c52f3a49e865841fb58b335da674",
    8: "d19465d2c88bf099ae818ee4701522d1dfda5f62f4e0036a8d83def876d54781",
    63: "5e5ca557572c89162daf0f7041d5d78fc0d4cc97e4e2920702b26cbf158c7e08",
    64: "6a93d33407277940c02a9d606b07963fc8cba3ab4987b6adbd0b0d8d9052ebfa",
}


@pytest.mark.parametrize("n", sorted(PARENT_SAMPLED_SHA256))
def test_sampled_file_bytes_are_pinned(n):
    image = random_image(64, 48, seed=11)
    session, shares = share_image(image, n, BACKEND_SAMPLED, (1 << 64) - 1)
    files = [serialize_share(share) for share in shares]
    files.append(serialize_session(session))
    assert hashlib.sha256(b"".join(files)).hexdigest() == PARENT_SAMPLED_SHA256[n]


@pytest.mark.parametrize(
    "subset", [(1,), (2, 5), (6, 1, 3), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]
)
def test_sampled_audit_matches_a_per_pixel_loop(subset):
    image = random_image(40, 30, seed=9)
    session, _ = share_image(image, 6, BACKEND_SAMPLED, 12)
    counts = np.zeros(1 << len(subset), dtype=np.int64)
    for outcome in _rows(session).tolist():
        index = 0
        for j in subset:
            index = (index << 1) | outcome[j - 1]
        counts[index] += 1
    report = audit_subset(session, subset)
    np.testing.assert_array_equal(report.distribution, counts / image.pixel_count)
    if len(subset) == 6:
        assert report.p_value is None
    else:
        assert report.p_value == chisquare(counts).pvalue


def test_large_sampled_round_trip_through_both_serializers():
    image = random_image(512, 512, seed=10)
    session, shares = share_image(image, 64, BACKEND_SAMPLED, 3)
    restored = deserialize_session(serialize_session(session))
    np.testing.assert_array_equal(restored.registers, session.registers)
    restored_shares = [deserialize_share(serialize_share(s)) for s in shares]
    assert restored_shares == shares
    assert recover_image(restored_shares[::-1], restored) == image


def test_sampled_share_payload_must_be_a_bit_array():
    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_SAMPLED, 42)
    with pytest.raises(ValueError, match="1-D uint8 array"):
        dataclasses.replace(shares[0], payload=(0, 1, 1, 0))
    with pytest.raises(ValueError, match=r"1-D uint8 array of shape \(1,\)"):
        dataclasses.replace(shares[0], payload=np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError, match="share payload has non-zero pad bits after bit 4"):
        dataclasses.replace(shares[0], payload=shares[0].payload ^ 1)


# --- header bounds, checked before anything is allocated ---


def with_header(blob: bytes, body: bytes | None = None, **fields) -> bytes:
    """Rewrite named header fields (and optionally the body); fix the CRC."""
    names = ("magic", "version", "backend", "n", "participant", "width", "height",
             "session_id")
    values = dict(zip(names, struct.unpack_from("<4sBBHHII16s", blob)))
    values.update(fields)
    head = struct.pack("<4sBBHHII16s", *values.values())
    if body is None:
        body = blob[HEADER_SIZE:-CRC_SIZE]
    return recrc(head + body + b"\0" * CRC_SIZE)


@pytest.mark.parametrize(
    "backend,n", [(BACKEND_STATEVECTOR, 1), (BACKEND_STATEVECTOR, 17),
                  (BACKEND_STATEVECTOR, 20000), (BACKEND_SAMPLED, 1),
                  (BACKEND_SAMPLED, 65), (BACKEND_SAMPLED, 65535)]
)
def test_header_n_over_the_backend_cap_is_rejected(backend, n):
    session, shares = share_image(DEMO_IMAGE, 3, backend, 42)
    share = with_header(serialize_share(shares[0]), n=n)
    with pytest.raises(FormatError, match=f"n {n} outside"):
        deserialize_share(share)
    blob = serialize_session(session)
    body = None
    if backend == BACKEND_SAMPLED:  # a payload that fits the declared n
        body = blob[HEADER_SIZE : HEADER_SIZE + SEED_SIZE] + bytes((4 * n + 7) // 8)
    with pytest.raises(FormatError, match=f"n {n} outside"):
        deserialize_session(with_header(blob, body, n=n))


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
@pytest.mark.parametrize(
    "width,height,name", [(0, 0, "width"), (5000, 1, "width"), (1, 4097, "height")]
)
def test_header_sides_outside_the_image_cap_are_rejected(backend, width, height, name):
    session, shares = share_image(DEMO_IMAGE, 3, backend, 42)
    fields = dict(width=width, height=height)
    with pytest.raises(FormatError, match=f"{name} {fields[name]} outside 1..4096"):
        deserialize_share(with_header(serialize_share(shares[0]), **fields))
    with pytest.raises(FormatError, match=f"{name} {fields[name]} outside 1..4096"):
        deserialize_session(with_header(serialize_session(session), **fields))


@pytest.mark.parametrize("value", [1e300, float("inf"), float("nan")])
def test_session_rejects_a_huge_or_non_finite_amplitude_without_warning(value):
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_session(session))
    # Entry 0's first stored re, after its form byte and 8-bit support.
    offset = HEADER_SIZE + SEED_SIZE + TABLE_LENGTH_SIZE + 1 + 1
    data[offset : offset + 8] = struct.pack("<d", value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="table entry 0 norm"):
            deserialize_session(recrc(bytes(data)))


# --- session equality and the session id ---


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_equal_sessions_compare_equal(backend):
    image = random_image(6, 5, 12)
    session, _ = share_image(image, 4, backend, 21)
    again, _ = share_image(image, 4, backend, 21)
    assert session == again
    assert deserialize_session(serialize_session(session)) == session
    assert session != share_image(image, 4, backend, 22)[0]
    assert session != "session"


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_session_master_seed_must_fit_the_u64_field(backend):
    session, _ = share_image(DEMO_IMAGE, 3, backend, 42)
    for seed in (0, (1 << 64) - 1):
        restored = deserialize_session(
            serialize_session(dataclasses.replace(session, master_seed=seed))
        )
        assert restored.master_seed == seed
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(session, master_seed=seed)
        assert str(err.value) == f"seed must be an int in 0..2^64-1, got {seed}"


def test_sampled_sessions_differing_in_one_register_are_unequal():
    session, _ = share_image(random_image(6, 5, 12), 4, BACKEND_SAMPLED, 21)
    registers = session.registers.copy()
    registers[2, 17 // 8] ^= 0x80 >> 17 % 8  # participant 3's bit of pixel 18
    assert session != dataclasses.replace(session, registers=registers)


def test_statevector_sessions_differing_in_one_register_are_unequal():
    image = random_image(6, 5, 12)
    session, _ = share_image(image, 4, BACKEND_STATEVECTOR, 21)
    other, _ = share_image(image, 4, BACKEND_STATEVECTOR, 21)
    flipped = ParitySpec(4, 1 - image.pixel(18))
    table = _with_register(other.registers, 17, prepare_parity_state_direct(flipped))
    other = dataclasses.replace(other, registers=table)
    assert session != other


def test_register_tables_compare_registers_not_their_layout():
    # Two entries for one state, against one entry: the same registers.
    even = prepare_parity_state_direct(ParitySpec(3, 0))
    odd = prepare_parity_state_direct(ParitySpec(3, 1))
    split = RegisterTable(3, [even, odd, even.copy()], [0, 1, 2, 2])
    merged = RegisterTable(3, [odd, even], [1, 0, 1, 1])
    assert split == merged
    # Measured outcomes as one entry per pixel, and as one per distinct value.
    outcomes = _outcomes(measure(_table_session(split), 3), 4)
    per_pixel = RegisterTable(3, [basis_state(3, v) for v in outcomes.tolist()], range(4))
    assert per_pixel == _collapsed_table(3, outcomes)
    assert per_pixel != split
    assert split != RegisterTable(3, [even], [0, 0, 0, 0])


def _entry(kind, n, draw):
    """One register-table entry of the given kind, for the property below."""
    if kind == "basis":
        return basis_state(n, draw(st.integers(0, (1 << n) - 1)))
    if kind in (0, 1):
        return prepare_parity_state_direct(ParitySpec(n, kind))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)) * (
        rng.random(1 << n) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    )
    amplitudes[rng.integers(1 << n)] += 1
    return StateVector(n, amplitudes / np.linalg.norm(amplitudes))


@st.composite
def mixed_table_pairs(draw):
    """Two tables of one n and pixel count, their entries drawn from one
    pool of parity states, random states and basis states, the second
    table sometimes a copy of the first."""
    n = draw(st.integers(2, 8))
    kinds = st.sampled_from(["basis", "random", 0, 1])
    pool = [_entry(kind, n, draw) for kind in draw(st.lists(kinds, min_size=1, max_size=5))]
    pixels = draw(st.integers(1, 12))

    def table():
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        index = draw(st.lists(st.integers(0, len(picks) - 1), min_size=pixels, max_size=pixels))
        return RegisterTable(n, picks, index)

    first = table()
    if draw(st.booleans()):
        return first, RegisterTable(n, list(first.states), first.index.copy())
    return first, table()


def _table_session(table):
    return protocol.SessionStore(
        n=table.n, backend=BACKEND_STATEVECTOR, master_seed=0, width=len(table),
        height=1, session_id=bytes(16), registers=table,
    )


@settings(max_examples=150, deadline=None)
@given(mixed_table_pairs())
def test_mixed_tables_compare_by_their_registers_and_read_back_equal(tables):
    first, second = tables
    same_registers = all(
        np.array_equal(a.amplitudes, b.amplitudes) for a, b in zip(first, second)
    )
    assert (first == second) is same_registers
    for table in tables:
        data = serialize_session(_table_session(table))
        assert deserialize_session(data).registers == table


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_session_id_does_not_depend_on_the_pixels(backend):
    first, _ = share_image(random_image(8, 4, 1), 3, backend, 5)
    second, _ = share_image(random_image(8, 4, 2), 3, backend, 5)
    assert first.session_id == second.session_id
    expected = hashlib.sha256(
        b"QVSS:session:v2"
        + struct.pack("<BHIIQ", 1 if backend == BACKEND_STATEVECTOR else 2, 3, 8, 4, 5)
    ).digest()[:16]
    assert first.session_id == expected


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_session_id_depends_on_the_seed_and_the_size(backend):
    image = random_image(8, 4, 1)
    ids = {
        share_image(image, 3, backend, 5)[0].session_id,
        share_image(image, 3, backend, 6)[0].session_id,
        share_image(image, 4, backend, 5)[0].session_id,
        share_image(random_image(4, 8, 1), 3, backend, 5)[0].session_id,
    }
    assert len(ids) == 4


# --- counting instead of sorting; pad bits ---


@pytest.mark.parametrize("color", [0, 1])
def test_single_colour_statevector_session_writes_one_entry(color):
    image = from_pixel_list(3, 2, [color] * 6)
    session, shares = share_image(image, 4, BACKEND_STATEVECTOR, 8)
    assert len(session.registers.states) == 1
    data = serialize_session(session)
    assert struct.unpack_from("<I", data, HEADER_SIZE + 8) == (1,)
    restored = deserialize_session(data)
    assert restored == session
    assert recover_image(shares, session, 5) == image
    recover_image(shares, restored, 5)
    assert restored == session


def test_a_hand_built_table_is_written_with_its_unused_entry():
    even, odd = (prepare_parity_state_direct(ParitySpec(3, b)) for b in (0, 1))
    biased = np.zeros(8, dtype=np.complex128)
    biased[[0b000, 0b011]] = 0.6, 0.8
    table = RegisterTable(3, [even, odd, StateVector(3, biased)], [0, 1, 1, 0])
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    session = dataclasses.replace(session, registers=table)
    data = serialize_session(session)
    # Three entries: two of one shared amplitude, one of two; an index of
    # two bit planes, [0, 1, 1, 0]'s high bits then its low bits.
    assert struct.unpack_from("<I", data, HEADER_SIZE + SEED_SIZE) == (3,)
    assert len(data) == 34 + 8 + 4 + 2 * (1 + 1 + 16) + (1 + 1 + 32) + 2 + 4 == 122
    assert data[-CRC_SIZE - 2 : -CRC_SIZE] == bytes([0, 0b0110_0000])
    restored = deserialize_session(data)
    assert len(restored.registers.states) == 3
    assert restored == session
    assert serialize_session(restored) == data


def _flip_last_payload_bit(blob: bytes) -> bytes:
    data = bytearray(blob)
    data[-CRC_SIZE - 1] ^= 1
    return recrc(bytes(data))


def test_share_with_a_set_pad_bit_is_rejected():
    _, shares = share_image(from_pixel_list(3, 1, [0, 1, 1]), 3, BACKEND_SAMPLED, 4)
    with pytest.raises(FormatError, match="share payload has non-zero pad bits"):
        deserialize_share(_flip_last_payload_bit(serialize_share(shares[0])))


def test_session_with_a_set_pad_bit_is_rejected():
    session, _ = share_image(from_pixel_list(3, 1, [0, 1, 1]), 3, BACKEND_SAMPLED, 4)
    message = "session outcome payload has non-zero pad bits"
    with pytest.raises(FormatError, match=message):
        deserialize_session(_flip_last_payload_bit(serialize_session(session)))


# --- the register index in the narrowest dtype that holds the last entry number ---


def test_register_index_takes_the_session_file_dtype():
    image = random_image(32, 32, seed=3)
    session, _ = share_image(image, 12, BACKEND_STATEVECTOR, 4)
    assert session.registers.index.dtype == np.uint8
    collapsed = _collapsed(session, 6)
    table = collapsed.registers
    assert len(table.states) > 255
    assert table.index.dtype == np.uint16
    assert deserialize_session(serialize_session(collapsed)) == collapsed


@pytest.mark.parametrize("index", [[0, 256], [0, -1], [0, 0.5]])
def test_register_index_that_does_not_fit_is_rejected(index):
    states = [prepare_parity_state_direct(ParitySpec(3, b)) for b in (0, 1)]
    with pytest.raises(ValueError, match="register index does not fit uint8"):
        RegisterTable(3, states, np.array(index))


@pytest.mark.parametrize(
    "entries,dtype",
    [(255, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32)],
)
def test_a_257th_entry_widens_the_index(entries, dtype):
    # Entry numbers run to entries - 1: 255 fits u8, 65535 fits u16.  One
    # state object stands for every entry.
    states = [prepare_parity_state_direct(ParitySpec(2, 0))] * entries
    table = RegisterTable(2, states, np.arange(entries))
    assert table.index.dtype == dtype
    assert table.index.tolist() == list(range(entries))


def test_the_outcomes_measured_at_n8_collapse_to_a_u8_index():
    image = random_image(128, 128, seed=5)
    session, shares = share_image(image, 8, BACKEND_STATEVECTOR, 6)
    assert recover_image(shares, session, 7) == image
    table = _collapsed(session, 7).registers
    assert len(table.states) == 256
    assert table.index.dtype == np.uint8


def test_multi_chunk_recovery_draws_what_one_draw_per_entry_draws(monkeypatch):
    image = random_image(40, 30, seed=4)
    session, shares = share_image(image, 4, BACKEND_STATEVECTOR, 8)
    collapsed = _collapsed(session, 1).registers
    # The collapsed entries, then the two parity states over a third of
    # the pixels: each parity group spans several 64-pixel chunks.
    parity = [prepare_parity_state_direct(ParitySpec(4, b)) for b in (0, 1)]
    index = collapsed.index.astype(np.uint32)
    index[::3] = len(collapsed.states) + image.pixels[::3]
    table = RegisterTable(4, [*collapsed.states, *parity], index)
    assert table.counts()[-2:].min() > 2 * 64
    session = dataclasses.replace(session, registers=table)
    monkeypatch.setattr(protocol, "_CHUNK", 64)
    outcomes = _outcomes(measure(session, 77), image.pixel_count)
    np.testing.assert_array_equal(outcomes, _outcomes_by_entry_masks(table, 77))
    assert recover_image(shares, session, 77) == image


# --- statevector file bytes; the session table cap ---


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_statevector_file_bytes_are_pinned():
    image = random_image(64, 64, seed=1)
    session, shares = share_image(image, 8, BACKEND_STATEVECTOR, 1)
    assert _sha256(serialize_session(session)) == (
        "b6538ac97e260add47c2b5ddf230ea4650e434be88561d672e35f3c09e7bae4e"
    )
    assert _sha256(b"".join(serialize_share(share) for share in shares)) == (
        "9d87be3dc4ba54a1af6d44ea1c1b24817c6f265198e86ad7231ed7a7033cabf0"
    )
    assert _sha256(serialize_session(tampered_session()[0])) == (
        "b1117a8da31cc91d7423273c2fe70c827348e6f90ac5da432683dfbbf72b2422"
    )
    image = random_image(32, 32, seed=1)
    session, _ = share_image(image, 6, BACKEND_STATEVECTOR, 1)
    # Built from the outcomes of measuring parity states, which are the
    # sampled share's planes at the same seed.
    assert _sha256(serialize_session(_collapsed(session, 2))) == (
        "ea3eb4d6c0fd2fc3efbcf0f0f745cec7a2247798df7a2619c6987965828d8b99"
    )


def test_session_table_over_the_cap_raises_before_allocating():
    image = random_image(64, 64, seed=3)
    session, _ = share_image(image, 14, BACKEND_STATEVECTOR, 4)
    # One entry per distinct outcome, as a collapsed table holds them, all
    # one state object: about 3,900 distinct n=14 states would take 1 GiB.
    outcomes = _outcomes(measure(session, 5), image.pixel_count)
    values, inverse = np.unique(outcomes, return_inverse=True)
    table = RegisterTable(14, session.registers.states[:1] * len(values), inverse)
    session = dataclasses.replace(session, registers=table)
    entries = np.count_nonzero(session.registers.counts())
    needed = entries * (1 + 16 * (1 << 14))
    assert needed > MAX_SESSION_TABLE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            serialize_session(session)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(err.value) == (
        f"register table of {entries} entries needs {needed} bytes, over the "
        f"{MAX_SESSION_TABLE_BYTES}-byte session table cap"
    )


def test_signed_zero_amplitudes_survive_the_session_file():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    amplitudes = np.zeros(8, dtype=np.complex128)
    amplitudes[:] = complex(-0.0, -0.0)
    amplitudes[0b101] = complex(-0.0, 1.0)
    table = _with_register(session.registers, 2, StateVector(3, amplitudes))
    session = dataclasses.replace(session, registers=table)
    data = serialize_session(session)
    restored = deserialize_session(data)
    assert serialize_session(restored) == data


# --- the register index at one bit per pixel; bounded passes over pixels ---


def test_a_one_entry_table_stores_no_index_and_rejects_one():
    session, _ = share_image(from_pixel_list(3, 2, [0] * 6), 3, BACKEND_STATEVECTOR, 8)
    data = serialize_session(session)
    assert struct.unpack_from("<I", data, HEADER_SIZE + SEED_SIZE) == (1,)
    assert len(data) == TABLE_START + 1 + 1 + 16 + CRC_SIZE
    # A plane in which pixel 1 points at entry 1.
    edited = data[:-CRC_SIZE] + bytes([0b1000_0000]) + data[-CRC_SIZE:]
    with pytest.raises(FormatError, match="register index holds 1 bytes, expected 0"):
        deserialize_session(recrc(edited))


def test_a_register_table_rejects_an_index_past_its_entries():
    even, odd = (prepare_parity_state_direct(ParitySpec(3, b)) for b in (0, 1))
    message = "register index value 5 out of range for a table of 2 entries"
    with pytest.raises(ValueError, match=message):
        RegisterTable(3, [even, odd], [0, 5])


def test_a_packed_index_with_a_set_pad_bit_is_rejected():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    message = "register index has non-zero pad bits after bit 4"
    with pytest.raises(FormatError, match=message):
        deserialize_session(_flip_last_payload_bit(serialize_session(session)))


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    n=st.integers(2, 9),
    seed=st.integers(0, 2**64 - 1),
    recovered=st.booleans(),
)
def test_statevector_session_file_round_trips(width, height, n, seed, recovered):
    image = random_image(width, height, seed)
    session, _ = share_image(image, n, BACKEND_STATEVECTOR, seed)
    if recovered:
        session = _collapsed(session, seed ^ 1)
    entries = int(np.count_nonzero(session.registers.counts()))
    # One bit plane per bit of the last entry's number.
    index_size = (entries - 1).bit_length() * ((image.pixel_count + 7) // 8)
    # A fresh entry and a collapsed one both store one shared amplitude.
    data = serialize_session(session)
    assert len(data) == (
        HEADER_SIZE + SEED_SIZE + TABLE_LENGTH_SIZE
        + entries * (1 + ((1 << n) + 7) // 8 + 16) + index_size + CRC_SIZE
    )
    restored = deserialize_session(data)
    assert restored == session
    assert restored.registers.index.dtype == (np.uint8 if entries <= 256 else np.uint16)
    assert serialize_session(restored) == data


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_passes_in_chunks_give_the_bytes_of_one_pass(backend, monkeypatch):
    image = random_image(13, 11, seed=2)  # 143 pixels: the last chunk is short

    def passes():
        """The session's file, that file read back and written again, the
        recovered image, and a statevector session's planes and collapsed
        file."""
        session, shares = share_image(image, 5, backend, 6)
        fresh = serialize_session(session)
        out = [
            fresh,
            serialize_session(deserialize_session(fresh)),
            recover_image(shares, session, 7),
        ]
        if backend == BACKEND_STATEVECTOR:
            collapsed = _collapsed(session, 7)
            table = collapsed.registers
            assert len(table.states) > 2
            assert table.counts().tolist() == np.bincount(table.index).tolist()
            out += [measure(session, 7).tobytes(), serialize_session(collapsed)]
        return out

    whole = passes()
    monkeypatch.setattr(protocol, "_CHUNK", 16)
    assert passes() == whole


def _traced_peak(function, *args):
    tracemalloc.start()
    try:
        result = function(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_fresh_session_at_the_size_cap_is_2_mib_and_serializes_in_6():
    image = random_image(4096, 4096, seed=1)
    session, _ = share_image(image, 16, BACKEND_STATEVECTOR, 2)
    del image
    data, peak = _traced_peak(serialize_session, session)
    entry = 1 + (1 << 16) // 8 + 16
    assert len(data) == 34 + 8 + 4 + 2 * entry + (4096 * 4096) // 8 + 4
    assert peak < 6 << 20


def test_a_recovered_session_is_written_without_a_second_copy():
    image = random_image(64, 64, seed=3)
    session, _ = share_image(image, 10, BACKEND_STATEVECTOR, 4)
    session = _collapsed(session, 5)
    entries = int(np.count_nonzero(session.registers.counts()))
    assert entries > 256  # a u16 index in memory, 9 or 10 bit planes in the file
    data, peak = _traced_peak(serialize_session, session)
    # Each collapsed entry: its form byte, a 1024-bit support, one amplitude.
    planes = (entries - 1).bit_length()
    assert len(data) == 34 + 8 + 4 + entries * (1 + 128 + 16) + planes * 64 * 64 // 8 + 4
    assert peak < 1.25 * len(data)


# --- sampled registers as n packed bit planes (format v4) ---


def _row_wise_draw(image, n, seed):
    """The sampled draw as rows: each Philox word's top n bits unpacked,
    the last then replaced by the XOR of the others and the colour."""
    words = np.random.Philox(key=SAMPLED_KEY_TAG | seed).random_raw(image.pixel_count)
    rows = np.unpackbits(words.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1, count=n)
    rows[:, -1] = np.bitwise_xor.reduce(rows[:, :-1], axis=1) ^ image.pixels
    return rows


@pytest.mark.parametrize("n", [2, 9, 64])
def test_sampled_planes_are_the_row_wise_draw_transposed(n):
    image = random_image(1025, 1025, seed=n)  # over one chunk, an odd pixel count
    session, _ = share_image(image, n, BACKEND_SAMPLED, 2**63 + n)
    rows = _row_wise_draw(image, n, 2**63 + n)
    np.testing.assert_array_equal(session.registers, np.packbits(rows.T, axis=1))


def test_share_bodies_are_the_session_planes():
    image = random_image(13, 7, seed=4)
    session, shares = share_image(image, 5, BACKEND_SAMPLED, 9)
    body = serialize_session(session)[HEADER_SIZE + SEED_SIZE : -CRC_SIZE]
    plane = (image.pixel_count + 7) // 8
    for j, share in enumerate(shares, start=1):
        assert serialize_share(share)[HEADER_SIZE:-CRC_SIZE] == body[(j - 1) * plane : j * plane]


def test_a_pad_bit_in_any_session_plane_is_rejected():
    session, _ = share_image(from_pixel_list(3, 1, [0, 1, 1]), 3, BACKEND_SAMPLED, 4)
    data = bytearray(serialize_session(session))
    data[HEADER_SIZE + SEED_SIZE] |= 1  # plane 1 holds one byte: 3 bits, 5 pad bits
    with pytest.raises(FormatError, match="session outcome payload has non-zero pad bits"):
        deserialize_session(recrc(bytes(data)))


def test_editing_the_image_after_sharing_leaves_the_session_unchanged():
    image = random_image(6, 5, seed=3)
    expected = BinaryImage(image.width, image.height, image.pixels.copy())
    session, shares = share_image(image, 3, BACKEND_STATEVECTOR, 8)
    image.pixels ^= 1
    np.testing.assert_array_equal(session.registers.index, expected.pixels)
    assert recover_image(shares, session, 9) == expected


def test_sharing_and_writing_a_sampled_session_peaks_under_three_times_its_planes():
    image = random_image(1024, 1024, seed=2)
    planes = 64 * 1024 * 1024 // 8

    def share_and_write():
        session, _ = share_image(image, 64, BACKEND_SAMPLED, 3)
        return serialize_session(session)

    data, peak = _traced_peak(share_and_write)
    assert len(data) == HEADER_SIZE + SEED_SIZE + planes + CRC_SIZE
    assert peak < 3 * planes


def test_a_fresh_session_at_the_size_cap_reads_back_holding_its_index_once():
    image = random_image(4096, 4096, seed=1)
    session, _ = share_image(image, 16, BACKEND_STATEVECTOR, 2)
    data = serialize_session(session)
    del image, session
    restored, peak = _traced_peak(deserialize_session, data)
    assert restored.registers.index.dtype == np.uint8
    assert peak < 20 << 20


def test_recovering_and_measuring_at_the_size_cap_peak_under_56_mib():
    # Parity states are measured as the sampled draw: 32 MiB of planes, 2 MiB
    # of packed colours and one chunk's 8 MiB of Philox words, 46 MiB
    # measured.  Recovery adds the XOR of the planes and the 16 MiB image,
    # 50 MiB measured.  The per-entry draw's grouping argsort took 186 MiB.
    image = random_image(4096, 4096, seed=3)
    session, shares = share_image(image, 16, BACKEND_STATEVECTOR, 4)
    recovered, peak = _traced_peak(recover_image, shares, session, 6)
    assert recovered == image
    assert peak < 56 << 20
    planes, peak = _traced_peak(measure, session, 6)
    assert peak < 56 << 20
    np.testing.assert_array_equal(
        np.bitwise_xor.reduce(planes, axis=0), np.packbits(image.pixels)
    )
    # A proper subset's measured bits are uniform: the sampled audit of
    # the planes sees no information.
    measured = dataclasses.replace(session, backend=BACKEND_SAMPLED, registers=planes)
    for k in (2, 8, 15):
        assert audit_subset(measured, range(1, k + 1)).verdict == "no-information"


def test_a_sampled_audit_at_the_size_cap_counts_one_chunk_at_a_time():
    # A whole u16 pattern index would take 32 MiB; one chunk's patterns
    # take 2 MiB, and 8 MiB more as bincount's intp copy.
    session, _ = share_image(random_image(4096, 4096, seed=3), 16, BACKEND_SAMPLED, 4)
    report, peak = _traced_peak(audit_subset, session, range(1, 17))
    assert report.distribution.sum() == pytest.approx(1.0)
    assert peak < 16 << 20


@pytest.mark.parametrize("subset", [(1,), (4, 2), (1, 2, 3, 4, 5)])
def test_a_sampled_audit_in_chunks_counts_what_one_pass_counts(subset, monkeypatch):
    session, _ = share_image(random_image(13, 11, seed=2), 5, BACKEND_SAMPLED, 6)
    whole = audit_subset(session, subset)
    monkeypatch.setattr(protocol, "_CHUNK", 16)  # 143 pixels: the last chunk is short
    chunked = audit_subset(session, subset)
    np.testing.assert_array_equal(chunked.distribution, whole.distribution)
    assert (chunked.p_value, chunked.verdict) == (whole.p_value, whole.verdict)


# --- the register index as bit planes (format v7) ---

#: Entries of the tables below: 9 qubits, so up to 512 distinct outcomes.
INDEX_N = 9


def _index_session(length: int, collapsed: bool):
    """A 29x11 statevector session (319 pixels, so each index plane ends
    in pad bits) whose table has ``length`` entries, every one used:
    hand-built from the two parity states and basis states, or collapsed
    from ``length`` distinct outcomes."""
    pixels = 29 * 11
    session, _ = share_image(random_image(29, 11, seed=length), INDEX_N, BACKEND_STATEVECTOR, 1)
    if collapsed:
        values = np.random.default_rng(length).permutation(1 << INDEX_N)[:length]
        table = _collapsed_table(INDEX_N, values[np.arange(pixels) % length])
    else:
        parity = [prepare_parity_state_direct(ParitySpec(INDEX_N, b)) for b in (0, 1)]
        basis = [basis_state(INDEX_N, v) for v in range(2, length)]
        states = [*parity, *basis][:length]
        table = RegisterTable(INDEX_N, states, np.arange(pixels)[::-1] % length)
    assert len(table.states) == length
    return dataclasses.replace(session, registers=table)


@pytest.mark.parametrize("collapsed", [False, True])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 255, 256, 257])
def test_an_index_is_one_bit_plane_per_bit_of_the_last_entry_number(length, collapsed):
    session = _index_session(length, collapsed)
    index, plane = session.registers.index, (29 * 11 + 7) // 8
    planes = (length - 1).bit_length()
    data = serialize_session(session)
    # Each entry: a form byte, a 512-bit support and one shared amplitude.
    assert len(data) == TABLE_START + length * (1 + 64 + 16) + planes * plane + CRC_SIZE
    stored = np.frombuffer(data, np.uint8, planes * plane, len(data) - CRC_SIZE - planes * plane)
    expected = [np.packbits((index >> s) & 1) for s in reversed(range(planes))]
    np.testing.assert_array_equal(stored.reshape(planes, plane), np.reshape(expected, (planes, plane)))
    restored = deserialize_session(data)
    assert restored == session
    np.testing.assert_array_equal(restored.registers.index, index)
    assert restored.registers.index.dtype == index.dtype
    assert serialize_session(restored) == data


@pytest.mark.parametrize("collapsed", [False, True])
@pytest.mark.parametrize("length,dtype", [(256, np.uint8), (257, np.uint16)])
def test_an_index_reads_back_in_the_dtype_of_its_last_entry_number(length, dtype, collapsed):
    restored = deserialize_session(serialize_session(_index_session(length, collapsed)))
    assert restored.registers.index.dtype == dtype


def _with_index_value(data: bytes, planes: int, pixel: int) -> bytes:
    """``data`` with every index bit of ``pixel`` (0-based) set: the
    largest value its ``planes`` planes hold."""
    edited = bytearray(data)
    plane = (29 * 11 + 7) // 8
    for row in range(planes):
        edited[len(data) - CRC_SIZE - (planes - row) * plane + pixel // 8] |= 0x80 >> pixel % 8
    return recrc(bytes(edited))


@pytest.mark.parametrize("length", [3, 255, 257])
@pytest.mark.parametrize("pixel", [0, 29 * 11 - 1])
def test_an_index_value_past_the_table_names_it(length, pixel):
    planes = (length - 1).bit_length()
    data = _with_index_value(serialize_session(_index_session(length, False)), planes, pixel)
    message = (
        f"register index value {(1 << planes) - 1} out of range for a table of "
        f"{length} entries in session file"
    )
    with pytest.raises(FormatError, match=message):
        deserialize_session(data)


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_a_version_6_file_is_refused(backend):
    session, shares = share_image(DEMO_IMAGE, 3, backend, 42)
    for blob, read, what in (
        (serialize_share(shares[0]), deserialize_share, "share"),
        (serialize_session(session), deserialize_session, "session"),
    ):
        data = bytearray(blob)
        data[4] = 6
        with pytest.raises(FormatError, match=f"unsupported {what} file format version 6"):
            read(recrc(bytes(data)))


# --- table entries as their support and non-zero amplitudes (format v5) ---

TABLE_START = HEADER_SIZE + SEED_SIZE + TABLE_LENGTH_SIZE


def _mixed_session(n):
    """A 5x3 statevector session whose table entries have different
    supports and amplitude forms: a parity state, a basis state
    and the uniform superposition of all 2^n strings (one shared amplitude
    each), a state with all 2^n amplitudes different, and the colour-1
    parity state with the sign of |0..010>'s amplitude flipped (-1/2 at
    n=3; equal magnitudes, unequal amplitudes: one per support bit)."""
    session, _ = share_image(random_image(5, 3, seed=1), n, BACKEND_STATEVECTOR, 9)
    rng = np.random.default_rng(n)
    full = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    leak = prepare_parity_state_direct(ParitySpec(n, 1)).amplitudes.copy()
    leak[0b010] *= -1
    states = [
        prepare_parity_state_direct(ParitySpec(n, 1)),
        basis_state(n, (1 << n) - 1),
        StateVector(n, full / np.linalg.norm(full)),
        StateVector(n, np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128)),
        StateVector(n, leak),
    ]
    table = RegisterTable(n, states, np.arange(15) % 5)
    return dataclasses.replace(session, registers=table)


def test_a_fresh_n8_session_file_is_two_half_supports_and_a_packed_index():
    image = random_image(13, 7, seed=2)
    session, _ = share_image(image, 8, BACKEND_STATEVECTOR, 3)
    assert len(session.registers.states) == 2
    data = serialize_session(session)
    # Per entry: its form byte, a 256-bit support, one shared amplitude.
    assert len(data) == (
        HEADER_SIZE + SEED_SIZE + 4 + 2 * (1 + 32 + 16) + (91 + 7) // 8 + CRC_SIZE
    )
    assert deserialize_session(data) == session


def test_a_collapsed_session_stores_each_entry_as_a_one_bit_support():
    image = random_image(16, 12, seed=6)
    session, _ = share_image(image, 4, BACKEND_STATEVECTOR, 8)
    outcomes = np.unique(_outcomes(measure(session, 1), image.pixel_count)).tolist()
    session = _collapsed(session, 1)
    data = serialize_session(session)
    assert struct.unpack_from("<I", data, HEADER_SIZE + SEED_SIZE) == (len(outcomes),)
    for entry, outcome in enumerate(outcomes):
        offset = TABLE_START + entry * (1 + 2 + 16)
        assert data[offset] == 1  # one shared amplitude
        support = np.unpackbits(np.frombuffer(data, np.uint8, 2, offset + 1))
        assert np.flatnonzero(support).tolist() == [outcome]
        assert struct.unpack_from("<dd", data, offset + 3) == (1.0, 0.0)
    restored = deserialize_session(data)
    assert restored == session
    assert serialize_session(restored) == data


@pytest.mark.parametrize("n", [2, 3, 5])
def test_entries_of_every_support_round_trip(n):
    session = _mixed_session(n)
    data = serialize_session(session)
    support = ((1 << n) + 7) // 8
    # Shared: the parity, basis and uniform entries; one per bit: the rest.
    amplitudes = 1 + 1 + (1 << n) + 1 + (1 << (n - 1))
    # Five entries: 3 index planes of 15 bits.
    assert len(data) == (
        TABLE_START + 5 * (1 + support) + 16 * amplitudes + 3 * 2 + CRC_SIZE
    )
    restored = deserialize_session(data)
    assert restored == session
    for entry in range(5):
        np.testing.assert_array_equal(
            restored.registers.states[entry].amplitudes,
            session.registers.states[entry].amplitudes,
        )
    assert serialize_session(restored) == data


def test_an_n2_support_with_a_set_pad_bit_names_its_entry():
    data = bytearray(serialize_session(_mixed_session(2)))
    # Entry 0 holds 1 shared amplitude; entry 1's support is one byte, 4 bits used.
    offset = TABLE_START + (1 + 1 + 16) + 1
    assert data[offset] == 0b0001_0000  # basis state 3
    data[offset] |= 0b0000_0001
    message = "register table entry 1 support has non-zero pad bits after bit 4"
    with pytest.raises(FormatError, match=message):
        deserialize_session(recrc(bytes(data)))


def test_a_support_whose_amplitudes_run_past_the_body_raises_before_allocating():
    session, _ = share_image(from_pixel_list(2, 2, [1] * 4), 16, BACKEND_STATEVECTOR, 8)
    data = bytearray(serialize_session(session))
    data[TABLE_START] = 0  # one amplitude per support bit
    support = TABLE_START + 1
    data[support : support + (1 << 16) // 8] = b"\xff" * ((1 << 16) // 8)
    data = recrc(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            deserialize_session(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18  # the entry's dense state would take 1 MiB
    assert str(err.value) == (
        "register table entry 0 support needs 1048576 bytes of amplitudes, "
        "only 16 remain"
    )


def test_a_table_length_of_2_32_minus_1_is_refused_up_front():
    session, _ = share_image(DEMO_IMAGE, 16, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_session(session))
    remaining = len(data) - TABLE_START - CRC_SIZE
    data[TABLE_START - TABLE_LENGTH_SIZE : TABLE_START] = (2**32 - 1).to_bytes(4, "little")
    data = recrc(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            deserialize_session(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert str(err.value) == (
        f"register table length {2**32 - 1} needs at least {(2**32 - 1) * (1 + 8192)} "
        f"bytes, only {remaining} remain"
    )


def test_a_table_over_the_session_cap_is_refused_before_it_is_read():
    # 300 entries with empty supports fit the file, but their dense states
    # would not fit the cap that the writer keeps.
    session, _ = share_image(DEMO_IMAGE, 16, BACKEND_STATEVECTOR, 42)
    entries = 300
    body = (
        struct.pack("<QI", 42, entries)
        + bytes(1 + 8192) * entries
        + bytes(4 * 2)
    )
    data = with_header(bytes(serialize_session(session)), body)
    dense = entries * (1 + (16 << 16))
    assert dense > MAX_SESSION_TABLE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            deserialize_session(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert str(err.value) == (
        f"register table length {entries} needs {dense} bytes of dense states, over "
        f"the {MAX_SESSION_TABLE_BYTES}-byte session table cap"
    )


def test_a_support_bit_on_a_zero_amplitude_is_rejected():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytes(serialize_session(session))[:-CRC_SIZE]
    support = TABLE_START + 1
    assert data[support] == 0b1001_0110  # entry 0: even parity, 0, 3, 5 and 6
    # Store entry 0 one amplitude per bit, mark index 1 too, and store a
    # zero for it after index 0's amplitude.
    amplitude = data[support + 1 : support + 17]
    data = (
        data[:TABLE_START] + bytes([0, 0b1101_0110]) + amplitude + bytes(16)
        + amplitude * 3 + data[support + 17 :]
    )
    with pytest.raises(FormatError, match="register table entry 0 support holds a zero"):
        deserialize_session(recrc(data + bytes(CRC_SIZE)))


# --- one shared amplitude or one per support bit (format v6) ---


def _entry_heads(data, n: int) -> list[tuple[int, int]]:
    """The offset and amplitude form of each register table entry."""
    (length,) = struct.unpack_from("<I", data, TABLE_START - TABLE_LENGTH_SIZE)
    heads, offset, support = [], TABLE_START, ((1 << n) + 7) // 8
    for _ in range(length):
        form = data[offset]
        bits = np.unpackbits(np.frombuffer(data, np.uint8, support, offset + 1))
        heads.append((offset, form))
        offset += 1 + support + 16 * (1 if form == 1 else int(bits.sum()))
    return heads


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_entry_shares_one_amplitude_only_if_all_are_equal(n):
    data = serialize_session(_mixed_session(n))
    # Parity, basis and uniform entries share one; the random and the
    # sign-flipped entries (equal magnitudes, unequal amplitudes) do not.
    assert [form for _, form in _entry_heads(data, n)] == [1, 1, 0, 1, 0]


def _with_entry_3(edit) -> bytes:
    """``_mixed_session(3)``'s file, with ``edit(data, offset)`` applied to
    entry 3 (the uniform superposition, one shared amplitude 8^-1/2)."""
    data = bytearray(serialize_session(_mixed_session(3)))
    offset, form = _entry_heads(data, 3)[3]
    assert form == 1 and data[offset + 1] == 0xFF
    edit(data, offset)
    return recrc(bytes(data))


def test_an_amplitude_form_of_2_names_its_entry():
    data = _with_entry_3(lambda data, offset: data.__setitem__(offset, 2))
    message = "register table entry 3 has amplitude form 2, expected 0 or 1"
    with pytest.raises(FormatError, match=message):
        deserialize_session(data)


def _shared_amplitude(value: complex):
    def edit(data, offset):
        data[offset + 2 : offset + 18] = struct.pack("<dd", value.real, value.imag)

    return edit


@pytest.mark.parametrize("off", [2, -2])
def test_a_shared_amplitude_whose_norm_is_off_names_its_entry(off):
    # popcount * |a|^2 = 8 |a|^2 is 1 + off * NORM_GUARD.
    guard = protocol.NORM_GUARD
    amplitude = ((1 + off * guard) / 8) ** 0.5
    with pytest.raises(FormatError, match="register table entry 3 norm deviates from 1"):
        deserialize_session(_with_entry_3(_shared_amplitude(amplitude)))
    within = ((1 + off * guard / 4) / 8) ** 0.5
    restored = deserialize_session(_with_entry_3(_shared_amplitude(within)))
    np.testing.assert_array_equal(restored.registers.states[3].amplitudes, np.full(8, within))


@pytest.mark.parametrize(
    "amplitude,message",
    [
        (0j, "norm deviates from 1 by 1.000e+00"),
        (complex(float("nan"), 0.0), "norm cannot be 1"),
        (complex(0.0, float("nan")), "norm cannot be 1"),
    ],
)
def test_a_zero_or_nan_shared_amplitude_names_its_entry(amplitude, message):
    with pytest.raises(FormatError, match=re.escape(f"register table entry 3 {message}")):
        deserialize_session(_with_entry_3(_shared_amplitude(amplitude)))


@pytest.mark.parametrize("value", [1e300, float("inf"), float("nan")])
def test_a_huge_or_non_finite_per_bit_amplitude_names_its_entry(value):
    # Entry 2 of _mixed_session stores one amplitude per support bit.
    data = bytearray(serialize_session(_mixed_session(3)))
    offset, form = _entry_heads(data, 3)[2]
    assert form == 0
    data[offset + 2 : offset + 10] = struct.pack("<d", value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="register table entry 2 norm cannot be 1"):
            deserialize_session(recrc(bytes(data)))


def test_equal_amplitudes_in_form_0_name_their_entry():
    # Entry 3's 8 equal amplitudes, one per support bit: the form the
    # writer never uses for them, so a table has one encoding.
    amplitude = struct.pack("<dd", 8**-0.5, 0.0)

    def edit(data, offset):
        data[offset : offset + 18] = bytes([0, 0xFF]) + 8 * amplitude

    message = "register table entry 3 stores 8 equal amplitudes in form 0, expected form 1"
    with pytest.raises(FormatError, match=message):
        deserialize_session(_with_entry_3(edit))


def test_amplitudes_equal_but_for_the_sign_of_a_zero_keep_it():
    session = _mixed_session(3)
    amplitudes = prepare_parity_state_direct(ParitySpec(3, 0)).amplitudes.copy()
    amplitudes[0b011] = complex(0.5, -0.0)
    states = session.registers.states[:4] + [StateVector(3, amplitudes)]
    table = RegisterTable(3, states, session.registers.index)
    session = dataclasses.replace(session, registers=table)
    data = serialize_session(session)
    assert [form for _, form in _entry_heads(data, 3)] == [1, 1, 0, 1, 0]
    restored = deserialize_session(data).registers.states[4].amplitudes
    assert restored.view(np.uint64).tolist() == amplitudes.view(np.uint64).tolist()


# --- an altered sampled share is rejected ---


def test_recovery_rejects_a_sampled_share_whose_plane_was_altered():
    image = random_image(64, 64, seed=9)
    session, shares = share_image(image, 5, BACKEND_SAMPLED, 9)
    data = bytearray(serialize_share(shares[2]))
    data[HEADER_SIZE + 100] ^= 0xFF  # 8 bits of participant 3's plane
    shares[2] = deserialize_share(recrc(bytes(data)))
    message = "share 3 differs from the session's plane 3 at payload byte 100"
    with pytest.raises(IntegrityError, match=message):
        recover_image(shares, session, 1)


def test_a_shares_payload_cannot_be_edited_in_place():
    image = random_image(64, 64, seed=9)
    session, shares = share_image(image, 5, BACKEND_SAMPLED, 9)
    with pytest.raises(ValueError, match="read-only"):
        shares[2].payload[100] ^= 0xFF
    assert session == share_image(image, 5, BACKEND_SAMPLED, 9)[0]
    assert recover_image(shares, session, 1) == image


def test_an_edited_copy_of_a_shares_payload_is_rejected():
    image = random_image(64, 64, seed=9)
    session, shares = share_image(image, 5, BACKEND_SAMPLED, 9)
    payload = shares[2].payload.copy()
    payload[100] ^= 0xFF
    shares[2] = dataclasses.replace(shares[2], payload=payload)
    message = "share 3 differs from the session's plane 3 at payload byte 100"
    with pytest.raises(IntegrityError, match=message):
        recover_image(shares, session, 1)


# --- shares are read once ---


@pytest.mark.parametrize("backend", [BACKEND_STATEVECTOR, BACKEND_SAMPLED])
def test_recover_reads_shares_passed_as_a_generator(backend):
    image = random_image(64, 64, seed=9)
    session, shares = share_image(image, 5, backend, 9)
    assert recover_image((share for share in shares), session, 1) == image
