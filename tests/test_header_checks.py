"""One check per rule: what can be built can be written and read back, and
numpy integers act as the plain ints they hold."""

import argparse
import contextlib
import dataclasses
import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvss import cli
from qvss.baseline import (
    Transparencies,
    build_nn_matrix_sets,
    restricted_sets_indistinguishable,
    stack_and_weight,
)
from qvss.circuit import CircuitDescription, Gate
from qvss.errors import FormatError, IntegrityError
from qvss.image_io import BinaryImage, from_pixel_list
from qvss.parity import ParitySpec, enumerate_parity_basis, prepare_parity_state_direct
from qvss.protocol import (
    BACKEND_SAMPLED,
    BACKEND_STATEVECTOR,
    RegisterTable,
    SessionStore,
    ShareFile,
    audit_subset,
    deserialize_session,
    deserialize_share,
    recover_image,
    serialize_session,
    serialize_share,
    share_image,
)
from qvss.statevector import (
    MAX_QUBITS,
    apply_h,
    basis_state,
    marginal_distribution,
    measure_shots,
    new_zero_state,
)

BACKENDS = [BACKEND_STATEVECTOR, BACKEND_SAMPLED]
BACKEND_IDS = {BACKEND_STATEVECTOR: 1, BACKEND_SAMPLED: 2}
HEADER = struct.Struct("<4sBBHHII16s")
DEMO_IMAGE = from_pixel_list(4, 1, [0, 1, 1, 0])

#: Largest pixel count the property test gives a body to; no header within
#: its strategies' caps has more.
BODY_PIXELS = 4096 * 3


def random_image(width, height, seed):
    rng = np.random.default_rng(seed)
    return BinaryImage(width, height, rng.integers(0, 2, size=width * height))


def with_header(blob: bytes, **fields) -> bytes:
    """``blob`` with the named header fields rewritten and its CRC fixed."""
    names = ("magic", "version", "backend", "n", "participant", "width", "height",
             "session_id")
    values = dict(zip(names, HEADER.unpack_from(blob)))
    values.update(fields)
    body = HEADER.pack(*values.values()) + blob[HEADER.size : -4]
    return body + zlib.crc32(body).to_bytes(4, "little")


def _built(n, backend, width, height, session_id):
    """A session of zero bits and participant 1's share, with these header
    fields.  The bodies fit only a header within the caps: any other fails
    the header check before they are looked at."""
    header = dict(n=n, backend=backend, width=width, height=height, session_id=session_id)
    pixels = width * height if width * height <= BODY_PIXELS else 0
    if backend == BACKEND_SAMPLED:
        registers = np.zeros((min(n, 64), (pixels + 7) // 8), dtype=np.uint8)
        payload = np.zeros((pixels + 7) // 8, dtype=np.uint8)
    elif 2 <= n <= MAX_QUBITS:
        registers = RegisterTable(n, [basis_state(n, 0)], np.zeros(pixels, dtype=np.uint8))
        payload = ()
    else:  # no n-qubit state to build: the header check refuses n first
        registers, payload = None, ()
    session = SessionStore(master_seed=0, registers=registers, **header)
    return session, ShareFile(participant=1, payload=payload, **header)


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(0, 66), st.sampled_from([16, 17, 64, 65, 65535])),
    backend=st.sampled_from(BACKENDS),
    width=st.one_of(st.integers(0, 9), st.sampled_from([4096, 4097, 65535])),
    height=st.one_of(st.integers(0, 3), st.sampled_from([4097, 5000])),
    id_length=st.one_of(st.just(16), st.integers(0, 20)),
)
def test_what_can_be_built_can_be_read_back(n, backend, width, height, id_length):
    try:
        session, share = _built(n, backend, width, height, bytes(range(id_length)))
    except ValueError as exc:
        error = str(exc)
    else:
        assert deserialize_session(serialize_session(session)) == session
        assert deserialize_share(serialize_share(share)) == share
        return
    if id_length != 16:  # the file's field holds 16 bytes, whatever is written
        return
    fields = dict(n=n, backend=BACKEND_IDS[backend], width=width, height=height)
    valid_session, valid_shares = share_image(DEMO_IMAGE, 3, backend, 42)
    for blob, read in ((serialize_session(valid_session), deserialize_session),
                       (serialize_share(valid_shares[0]), deserialize_share)):
        with pytest.raises(FormatError) as err:
            read(with_header(bytes(blob), **fields))
        assert error in str(err.value)


@pytest.mark.parametrize("length", [5, 20])
def test_a_share_with_a_session_id_of_another_length_is_not_built(length):
    _, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    with pytest.raises(ValueError, match="session id must be 16 bytes"):
        dataclasses.replace(shares[0], session_id=bytes(length))


def test_a_sampled_share_with_n_over_the_cap_is_not_built():
    with pytest.raises(ValueError, match="n 70 outside 2..64 for sampled"):
        ShareFile(participant=1, n=70, backend=BACKEND_SAMPLED, width=4, height=1,
                  session_id=bytes(16), payload=np.zeros(1, dtype=np.uint8))


def test_a_session_whose_table_has_another_n_is_not_built():
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    states = [prepare_parity_state_direct(ParitySpec(4, b)) for b in (0, 1)]
    table = RegisterTable(4, states, DEMO_IMAGE.pixels.copy())
    with pytest.raises(ValueError, match="register table n 4 is not session n 3"):
        dataclasses.replace(session, registers=table)


def test_a_register_table_checks_every_entry_it_is_built_with():
    with pytest.raises(ValueError, match="register has 4 qubits, table holds 3"):
        RegisterTable(3, [prepare_parity_state_direct(ParitySpec(4, 0))], [0])
    with pytest.raises(ValueError, match="register table entry 1 must be a StateVector, got int"):
        RegisterTable(3, [prepare_parity_state_direct(ParitySpec(3, 0)), 5], [0, 1])


@pytest.mark.parametrize(
    "changes,name",
    [(dict(session_id=bytes(16)), "session_id"), (dict(width=2, height=2), "width")],
)
def test_a_share_set_error_names_the_first_field_that_differs(changes, name):
    session, shares = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 42)
    shares[1] = dataclasses.replace(shares[1], **changes)
    with pytest.raises(IntegrityError, match=f"share 2 has {name} "):
        recover_image(shares, session, 9)


# --- numpy integers act as the ints they hold ---


@pytest.mark.parametrize("backend", BACKENDS)
def test_numpy_integers_share_like_plain_ints(backend):
    image = random_image(5, 4, 1)
    plain_session, plain_shares = share_image(image, 3, backend, 5)
    for n, seed in ((np.int64(3), 5), (3, np.uint64(5)), (np.uint8(3), np.int64(5))):
        session, shares = share_image(image, n, backend, seed)
        assert session == plain_session
        assert shares == plain_shares
        assert type(session.n) is int and type(session.master_seed) is int
        assert all(type(share.n) is int for share in shares)


@pytest.mark.parametrize("backend", BACKENDS)
def test_numpy_subsets_audit_like_plain_ints(backend):
    session, _ = share_image(random_image(8, 8, 2), 3, backend, 5)
    plain = audit_subset(session, [1, 2])
    for subset in (np.array([1, 2]), (np.int64(1), np.uint8(2))):
        report = audit_subset(session, subset)
        assert report.subset == (1, 2)
        assert all(type(j) is int for j in report.subset)
        np.testing.assert_array_equal(report.distribution, plain.distribution)
        assert (report.max_deviation, report.verdict, report.p_value) == (
            plain.max_deviation, plain.verdict, plain.p_value
        )
    # Qubit 3 alone is set, so the (3, 1) pattern order is not (1, 3)'s.
    state = basis_state(3, 1)
    np.testing.assert_array_equal(
        marginal_distribution(state, np.array([3, 1])), marginal_distribution(state, (3, 1))
    )


def test_an_out_of_range_numpy_integer_is_named_as_an_int():
    with pytest.raises(ValueError, match=r"^n 70 outside 2..64 for sampled$"):
        share_image(DEMO_IMAGE, np.int64(70), BACKEND_SAMPLED, 1)
    with pytest.raises(ValueError, match=r"^seed must be an int in 0..2\^64-1, got -1$"):
        share_image(DEMO_IMAGE, 3, BACKEND_SAMPLED, np.int64(-1))
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_SAMPLED, 1)
    with pytest.raises(ValueError, match=r"^qubit 4 out of range 1..3$"):
        audit_subset(session, np.array([1, 4]))


@pytest.mark.parametrize("value", [2.0, "3", 3.5, None])
def test_non_integral_values_are_rejected(value):
    with pytest.raises(ValueError):
        share_image(DEMO_IMAGE, value, BACKEND_SAMPLED, 1)
    with pytest.raises(ValueError):
        share_image(DEMO_IMAGE, 3, BACKEND_SAMPLED, value)
    session, _ = share_image(DEMO_IMAGE, 3, BACKEND_STATEVECTOR, 1)
    with pytest.raises(ValueError):
        audit_subset(session, [1, value])


# --- every argument check: numpy integers count as ints, the rest is refused ---


SETS = build_nn_matrix_sets(3)


def _emit_xor(n):
    args = argparse.Namespace(kind="xor", n=n, b=None, input=None, out=None,
                              simulate=True, shots=None, seed=None)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.cmd_emit_circuit(args)
    return out.getvalue()


#: Call site -> (call, a valid value, values it refuses, the type it raises).
#: A call returns what the site stores, or what it computes from the value.
ARGUMENT_CHECKS = {
    "BinaryImage width": (
        lambda w: BinaryImage(w, 1, np.zeros(int(w), dtype=np.uint8)).width,
        2, [2.0, 0, 4097], ValueError),
    "Transparencies width": (
        lambda w: Transparencies(w, 1, np.zeros((2, 1, (int(w) + 7) // 8), np.uint8)).width,
        10, [10.0, 0, 4097], ValueError),
    "share header width": (
        lambda w: ShareFile(participant=1, n=3, backend=BACKEND_STATEVECTOR, width=w,
                            height=1, session_id=bytes(16), payload=()).width,
        4, [4.0, 0, 4097], ValueError),
    "stack_and_weight rows": (
        lambda rows: stack_and_weight(SETS.c0_base, rows),
        (1, 3), [(0,), (1.5,), (4,), (1, 1)], ValueError),
    "restricted_sets_indistinguishable rows": (
        lambda rows: restricted_sets_indistinguishable(SETS, rows),
        (1, 2), [(0,), (2.5,), (4,), (2, 2)], ValueError),
    "CircuitDescription qubit count": (
        lambda n: CircuitDescription(n, ()).num_qubits,
        2, [2.5, 0], ValueError),
    "gate operand": (
        lambda q: CircuitDescription(2, (Gate("H", (q,)),)).gates[0].qubits,
        2, [1.5, 0, 3], ValueError),
    "apply_h qubit": (
        lambda q: apply_h(new_zero_state(2), q).amplitudes,
        1, [1.0, 0, 3], IndexError),
    "basis_state index": (
        lambda i: basis_state(3, i).amplitudes,
        5, [5.0, -1, 8], ValueError),
    "measure_shots count": (
        lambda s: measure_shots(new_zero_state(1), s, np.random.default_rng(0)),
        3, [3.0, 0, -1], ValueError),
    "emit-circuit --n": (_emit_xor, 3, [3.0, 1, 65], ValueError),
    "ParitySpec secret bit": (lambda b: ParitySpec(3, b).b, 1, [1.0, 2, -1], ValueError),
    "enumerate_parity_basis n": (
        lambda n: enumerate_parity_basis(ParitySpec(n, 0)),
        3, [3.0, 17], ValueError),
    "prepare_parity_state_direct n": (
        lambda n: prepare_parity_state_direct(ParitySpec(n, 0)).amplitudes,
        3, [3.0, 17], ValueError),
}


@pytest.mark.parametrize("site", ARGUMENT_CHECKS)
def test_an_argument_check_takes_numpy_integers_and_refuses_the_rest(site):
    call, valid, refused, error = ARGUMENT_CHECKS[site]
    numpy_form = np.array(valid) if isinstance(valid, tuple) else np.int64(valid)
    # repr tells np.int64(2) from 2, and an array's repr holds its values.
    assert repr(call(numpy_form)) == repr(call(valid))
    for value in refused:
        with pytest.raises(error):
            call(value)
