import dataclasses
import hashlib
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from qvss.errors import (
    FormatError,
    IncompleteSharesError,
    IntegrityError,
    StateCorruptionError,
)
from qvss.image_io import BinaryImage, from_pixel_list
from qvss.parity import ParitySpec, enumerate_parity_basis, prepare_parity_state_direct
from qvss.protocol import (
    BACKEND_SAMPLED,
    BACKEND_STATEVECTOR,
    RegisterTable,
    audit_subset,
    deserialize_session,
    deserialize_share,
    pixel_rng,
    recover_image,
    recover_pixel,
    serialize_session,
    serialize_share,
    share_image,
)
from qvss.statevector import (
    StateVector,
    _checked_probabilities,
    marginal_distribution,
    measure_all,
)

DEMO_IMAGE = from_pixel_list(4, 1, [0, 1, 1, 0])


def random_image(width, height, seed):
    rng = np.random.default_rng(seed)
    return BinaryImage(width, height, rng.integers(0, 2, size=width * height))


# --- sharing ---


def test_share_statevector_states_follow_pixel_colors():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    assert len(shares) == 3
    for l, expected_b in zip(range(1, 5), [0, 1, 1, 0]):
        expected = prepare_parity_state_direct(ParitySpec(3, expected_b))
        np.testing.assert_allclose(
            session.registers[l - 1].amplitudes, expected.amplitudes, atol=1e-15
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
    assert recover_pixel((0, 0, 0)) == 0
    assert recover_pixel((1, 0, 0)) == 1
    assert recover_pixel((1, 1, 0)) == 0
    assert recover_pixel((0, 1, 1, 0)) == 0


def test_recover_sampled_xors_share_bits():
    session, shares = share_image(DEMO_IMAGE, 6, BACKEND_SAMPLED, 11)
    recovered = recover_image(shares, session)
    assert recovered == DEMO_IMAGE
    for l in range(1, 5):
        bits = tuple(share.payload[l - 1] for share in shares)
        assert recover_pixel(bits) == DEMO_IMAGE.pixel(l)


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


def test_recover_collapses_session_registers():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    recover_image(shares, session, 9)
    for register in session.registers:
        probs = np.abs(register.amplitudes) ** 2
        assert np.count_nonzero(probs > 1e-15) == 1


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
        assert recover_pixel(bits) == b


@pytest.mark.parametrize("b", [0, 1])
def test_measured_outcomes_always_decode_to_secret(b):
    state = prepare_parity_state_direct(ParitySpec(5, b))
    rng = np.random.default_rng(1000 + b)
    for _ in range(500):
        outcome, _ = measure_all(state, rng)
        assert recover_pixel(outcome) == b


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
    per_pixel = marginal_distribution(session.registers[0], (1, 2, 3)).probabilities
    assert np.count_nonzero(per_pixel > 1e-15) == 4


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
    session.registers[1] = StateVector(3, biased)
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
    for outcome in session.registers:
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
    assert data[4] == 2  # version
    assert data[5] == 1  # statevector backend id
    assert int.from_bytes(data[6:8], "little") == 3  # n
    assert int.from_bytes(data[8:10], "little") == 1  # participant
    assert int.from_bytes(data[10:14], "little") == 4  # pixel count


def test_session_header_declares_pixel_count():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = serialize_session(session)
    assert data[:4] == b"QVSE"
    assert int.from_bytes(data[10:14], "little") == 4


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


# --- v2 formats: register table sessions, payload-free statevector shares ---

# Header layout shared by shares and sessions: magic, version, backend, n,
# participant, pixel count, width, height, session id.
HEADER_SIZE = struct.calcsize("<4sBBHHIII16s")
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
    session.registers[1] = StateVector(3, biased)
    return session, shares


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


def test_tampered_table_entry_survives_session_file():
    session, _ = tampered_session()
    assert len(session.registers.states) == 3
    restored = deserialize_session(serialize_session(session))
    assert len(restored.registers.states) == 3
    np.testing.assert_array_equal(
        restored.registers[1].amplitudes, session.registers[1].amplitudes
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


def test_recover_collapse_is_deterministic_under_seed():
    image = random_image(12, 10, seed=4)
    collapsed = []
    for _ in range(2):
        session, shares = share_image(image, 5, BACKEND_STATEVECTOR, 21)
        assert recover_image(shares, session, 99) == image
        collapsed.append([register.amplitudes for register in session.registers])
    for a, b in zip(*collapsed):
        np.testing.assert_array_equal(a, b)


def test_recovered_colors_are_parities_of_collapsed_outcomes():
    image = random_image(9, 7, seed=8)
    session, shares = share_image(image, 4, BACKEND_STATEVECTOR, 3)
    recovered = recover_image(shares, session, 5)
    for l, register in enumerate(session.registers, start=1):
        outcome = int(np.flatnonzero(register.amplitudes)[0])
        assert bin(outcome).count("1") % 2 == recovered.pixel(l)


def test_recover_rejects_corrupted_table_entry():
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    session.registers[0] = StateVector(3, np.full(8, 0.5, dtype=np.complex128))
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
    with pytest.raises(FormatError, match="register index holds 5 bytes"):
        deserialize_session(recrc(data[:-CRC_SIZE] + b"\x00" + data[-CRC_SIZE:]))


def test_session_rejects_index_value_beyond_table():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_session(session))
    data[-CRC_SIZE - 1] = 2  # last pixel's index; the table has 2 entries
    with pytest.raises(FormatError, match="register index value 2"):
        deserialize_session(recrc(bytes(data)))


def test_session_rejects_table_entry_with_bad_norm():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_session(session))
    offset = HEADER_SIZE + SEED_SIZE + TABLE_LENGTH_SIZE + 2  # entry 0's first re
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
            state = table.state(entry)
            outcomes[table.index == entry] = rng.choice(
                state.dim, size=count, p=_checked_probabilities(state)
            )
    return outcomes


def test_recover_of_a_collapsed_session_matches_per_entry_masks():
    image = random_image(16, 12, seed=6)
    session, shares = share_image(image, 4, BACKEND_STATEVECTOR, 8)
    recover_image(shares, session, 1)
    table = session.registers
    # Up to 16 basis-state entries, plus superpositions scattered among them
    # so that the draw order changes the outcomes.
    amplitudes = np.random.default_rng(2).normal(size=16) + 0j
    scattered = StateVector(4, amplitudes / np.linalg.norm(amplitudes))
    for pixel in range(0, len(table), 5):
        table[pixel] = prepare_parity_state_direct(ParitySpec(4, image.pixels[pixel]))
    for pixel in range(3, len(table), 7):
        table[pixel] = scattered
    assert len(table.states) > 10
    before = RegisterTable(4, table.states, table.index.copy())

    recovered = recover_image(shares, session, 77)
    outcomes = np.array(table.states)[table.index]
    np.testing.assert_array_equal(outcomes, _outcomes_by_entry_masks(before, 77))
    parities = [bin(int(o)).count("1") & 1 for o in outcomes]
    np.testing.assert_array_equal(recovered.pixels, parities)


# --- array-native sampled backend ---

SAMPLED_KEY_TAG = 1 << 64


@pytest.mark.parametrize("n", [2, 3, 16, 63, 64])
def test_every_sampled_row_has_its_pixel_parity(n):
    image = random_image(37, 11, seed=n)
    session, shares = share_image(image, n, BACKEND_SAMPLED, 31)
    assert session.registers.shape == (image.pixel_count, n)
    np.testing.assert_array_equal(
        np.bitwise_xor.reduce(session.registers, axis=1), image.pixels
    )
    for j, share in enumerate(shares):
        np.testing.assert_array_equal(share.payload, session.registers[:, j])


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

    np.testing.assert_array_equal(session.registers, rows(SAMPLED_KEY_TAG | seed))
    # The baseline's Philox(key=seed) words are a different stream.
    assert not np.array_equal(session.registers, rows(seed))


def test_sampled_top_rows_crop_gets_the_top_rows_of_the_bits():
    image = random_image(9, 7, seed=6)
    crop = BinaryImage(9, 3, image.pixels[:27])
    full, _ = share_image(image, 5, BACKEND_SAMPLED, 8)
    top, _ = share_image(crop, 5, BACKEND_SAMPLED, 8)
    np.testing.assert_array_equal(top.registers, full.registers[:27])


# Written by the per-pixel tuple implementation: a 3x2 image
# [0, 1, 1, 0, 1, 1] shared at n=3 with seed 5 on the sampled backend.
PARENT_SAMPLED_SHARES = [
    "51565353020203000100060000000300000002000000c7ca004e31fc0c4ac8af2bef088baa36b085b58776",
    "51565353020203000200060000000300000002000000c7ca004e31fc0c4ac8af2bef088baa3670464ecbfe",
    "51565353020203000300060000000300000002000000c7ca004e31fc0c4ac8af2bef088baa36ac6838497f",
]
PARENT_SAMPLED_SESSION = (
    "51565345020203000000060000000300000002000000c7ca004e31fc0c4ac8af2bef088baa36"
    "0500000000000000abe2403399f874"
)
PARENT_SAMPLED_OUTCOMES = [
    (1, 0, 1), (0, 1, 0), (1, 1, 1), (1, 1, 0), (0, 0, 1), (0, 0, 1)
]


def test_sampled_files_from_the_tuple_implementation_still_recover():
    shares = [deserialize_share(bytes.fromhex(h)) for h in PARENT_SAMPLED_SHARES]
    session = deserialize_session(bytes.fromhex(PARENT_SAMPLED_SESSION))
    np.testing.assert_array_equal(session.registers, PARENT_SAMPLED_OUTCOMES)
    image = from_pixel_list(3, 2, [0, 1, 1, 0, 1, 1])
    assert recover_image(shares, session, 1) == image
    assert [serialize_share(s).hex() for s in shares] == PARENT_SAMPLED_SHARES
    assert serialize_session(session).hex() == PARENT_SAMPLED_SESSION


@pytest.mark.parametrize(
    "subset", [(1,), (2, 5), (6, 1, 3), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]
)
def test_sampled_audit_matches_a_per_pixel_loop(subset):
    image = random_image(40, 30, seed=9)
    session, _ = share_image(image, 6, BACKEND_SAMPLED, 12)
    counts = np.zeros(1 << len(subset), dtype=np.int64)
    for outcome in session.registers.tolist():
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
    with pytest.raises(ValueError, match="0 or 1"):
        dataclasses.replace(shares[0], payload=np.array([0, 2, 1, 0], dtype=np.uint8))


# --- header bounds, checked before anything is allocated ---


def with_header(blob: bytes, body: bytes | None = None, **fields) -> bytes:
    """Rewrite named header fields (and optionally the body); fix the CRC."""
    names = ("magic", "version", "backend", "n", "participant", "pixels",
             "width", "height", "session_id")
    values = dict(zip(names, struct.unpack_from("<4sBBHHIII16s", blob)))
    values.update(fields)
    head = struct.pack("<4sBBHHIII16s", *values.values())
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
    fields = dict(width=width, height=height, pixels=width * height)
    with pytest.raises(FormatError, match=f"{name} {fields[name]} outside 1..4096"):
        deserialize_share(with_header(serialize_share(shares[0]), **fields))
    with pytest.raises(FormatError, match=f"{name} {fields[name]} outside 1..4096"):
        deserialize_session(with_header(serialize_session(session), **fields))


@pytest.mark.parametrize("value", [1e300, float("inf"), float("nan")])
def test_session_rejects_a_huge_or_non_finite_amplitude_without_warning(value):
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    data = bytearray(serialize_session(session))
    offset = HEADER_SIZE + SEED_SIZE + TABLE_LENGTH_SIZE + 2  # entry 0's first re
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


def test_sampled_sessions_differing_in_one_register_are_unequal():
    session, _ = share_image(random_image(6, 5, 12), 4, BACKEND_SAMPLED, 21)
    registers = session.registers.copy()
    registers[17, 2] ^= 1
    assert session != dataclasses.replace(session, registers=registers)


def test_statevector_sessions_differing_in_one_register_are_unequal():
    image = random_image(6, 5, 12)
    session, _ = share_image(image, 4, BACKEND_STATEVECTOR, 21)
    other, _ = share_image(image, 4, BACKEND_STATEVECTOR, 21)
    flipped = ParitySpec(4, 1 - image.pixel(18))
    other.registers[17] = prepare_parity_state_direct(flipped)
    assert session != other


def test_register_tables_compare_registers_not_their_layout():
    # Two entries for one state, against one entry: the same registers.
    even = prepare_parity_state_direct(ParitySpec(3, 0))
    odd = prepare_parity_state_direct(ParitySpec(3, 1))
    split = RegisterTable(3, [even, odd, even.copy()], [0, 1, 2, 2])
    merged = RegisterTable(3, [odd, even], [1, 0, 1, 1])
    assert split == merged
    merged.collapse(np.array([0, 1, 0, 0]))
    split.collapse(np.array([0, 1, 0, 0]))
    assert split == merged
    assert split != RegisterTable(3, [even], [0, 0, 0, 0])


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


def test_collapse_equals_the_sorted_distinct_outcomes():
    outcomes = np.random.default_rng(3).integers(0, 1 << 16, size=5000)
    outcomes[[0, -1]] = [0, (1 << 16) - 1]
    table = RegisterTable(16, [], np.zeros(5000, dtype=np.int64))
    table.collapse(outcomes)
    values, index = np.unique(outcomes, return_inverse=True)
    assert table.states == values.tolist()
    np.testing.assert_array_equal(table.index, index)


@pytest.mark.parametrize("color", [0, 1])
def test_single_colour_statevector_session_writes_one_entry(color):
    image = from_pixel_list(3, 2, [color] * 6)
    session, shares = share_image(image, 4, BACKEND_STATEVECTOR, 8)
    data = serialize_session(session)
    assert struct.unpack_from("<I", data, HEADER_SIZE + 8) == (1,)
    restored = deserialize_session(data)
    assert restored == session
    assert recover_image(shares, session, 5) == image
    recover_image(shares, restored, 5)
    assert restored == session


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


# --- the register index in the dtype the session file stores ---


def test_register_index_takes_the_session_file_dtype():
    image = random_image(32, 32, seed=3)
    session, shares = share_image(image, 12, BACKEND_STATEVECTOR, 4)
    assert session.registers.index.dtype == np.uint8
    recover_image(shares, session, 6)
    table = session.registers
    assert len(table.states) > 255
    assert table.index.dtype == np.uint16
    assert deserialize_session(serialize_session(session)) == session


@pytest.mark.parametrize("index", [[0, 256], [0, -1], [0, 0.5]])
def test_register_index_that_does_not_fit_is_rejected(index):
    states = [prepare_parity_state_direct(ParitySpec(3, b)) for b in (0, 1)]
    with pytest.raises(ValueError, match="register index does not fit uint8"):
        RegisterTable(3, states, np.array(index))


def test_appending_a_256th_entry_widens_the_index():
    table = RegisterTable(8, range(255), np.arange(255))
    assert table.index.dtype == np.uint8
    table[0] = prepare_parity_state_direct(ParitySpec(8, 1))
    assert table.index.dtype == np.uint16
    assert table.index.tolist() == [255, *range(1, 255)]
    assert table[0] is table.states[255]
