import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvss.circuit import simulate_circuit
from qvss.parity import (
    ParitySpec,
    build_parity_circuit,
    build_xor_circuit,
    enumerate_parity_basis,
    prepare_parity_state_direct,
    xor_decode_classical,
)
from qvss.statevector import (
    StateVector,
    bits_to_index,
    index_to_bits,
    measure_all,
    new_zero_state,
    probability_of,
)


def basis_state(bits) -> StateVector:
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[bits_to_index(bits)] = 1.0
    return StateVector(len(bits), amps)


# --- spec validation ---


@pytest.mark.parametrize("n,b", [(1, 0), (0, 1), (2, 2), (3, -1), (2.5, 0)])
def test_spec_rejects_bad_parameters(n, b):
    with pytest.raises(ValueError):
        ParitySpec(n, b)


def test_direct_state_rejects_oversized_register():
    with pytest.raises(ValueError):
        prepare_parity_state_direct(ParitySpec(17, 0))


# --- direct construction ---


def test_three_qubit_white_state():
    state = prepare_parity_state_direct(ParitySpec(3, 0))
    expected = np.zeros(8)
    expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_three_qubit_black_state():
    state = prepare_parity_state_direct(ParitySpec(3, 1))
    expected = np.zeros(8)
    expected[[0b111, 0b001, 0b010, 0b100]] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_two_qubit_white_state_is_bell_pair():
    state = prepare_parity_state_direct(ParitySpec(2, 0))
    np.testing.assert_allclose(
        state.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15
    )


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("b", [0, 1])
def test_direct_state_amplitude_profile(n, b):
    state = prepare_parity_state_direct(ParitySpec(n, b))
    nonzero = np.abs(state.amplitudes) > 0
    assert int(nonzero.sum()) == 1 << (n - 1)
    np.testing.assert_allclose(
        np.abs(state.amplitudes[nonzero]), 1.0 / np.sqrt(1 << (n - 1)), atol=1e-12
    )
    # every supported string has parity b, independently recomputed
    for index in np.nonzero(nonzero)[0]:
        assert bin(int(index)).count("1") % 2 == b


def test_probability_of_supported_and_excluded_strings():
    state = prepare_parity_state_direct(ParitySpec(3, 0))
    assert probability_of(state, (0, 1, 1)) == pytest.approx(0.25, abs=1e-15)
    assert probability_of(state, (0, 0, 1)) == 0.0


@pytest.mark.parametrize("b", [0, 1])
def test_six_qubit_subset_marginal_matches_amplitude_oracle(b):
    # Oracle: accumulate squared amplitudes over the enumerated 32-term
    # expansion with plain python, then compare the engine's marginal.
    from qvss.statevector import marginal_distribution

    expected = [0.0] * 8
    for bits in enumerate_parity_basis(ParitySpec(6, b)):
        pattern = (bits[0] << 2) | (bits[1] << 1) | bits[2]
        expected[pattern] += (1 / np.sqrt(32)) ** 2
    state = prepare_parity_state_direct(ParitySpec(6, b))
    dist = marginal_distribution(state, (1, 2, 3))
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)
    np.testing.assert_allclose(dist.probabilities, 1 / 8, atol=1e-12)


def test_measure_never_yields_wrong_parity():
    state = prepare_parity_state_direct(ParitySpec(3, 0))
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(200):
        outcome, _ = measure_all(state, rng)
        seen.add(outcome)
        assert sum(outcome) % 2 == 0
    assert seen <= {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


# --- enumeration ---


def test_enumerate_small_cases():
    assert enumerate_parity_basis(ParitySpec(2, 1)) == [(0, 1), (1, 0)]
    assert enumerate_parity_basis(ParitySpec(2, 0)) == [(0, 0), (1, 1)]


@pytest.mark.parametrize("b", [0, 1])
def test_enumerate_six_qubits(b):
    # The analytic definition is authoritative: 32 strings of parity b in
    # ascending order, each supported in the direct state.
    basis = enumerate_parity_basis(ParitySpec(6, b))
    assert len(basis) == 32
    assert len(set(basis)) == 32
    assert basis == sorted(basis)
    for bits in basis:
        assert sum(bits) % 2 == b
    if b == 0:
        for known in [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 1), (1, 1, 1, 1, 1, 1)]:
            assert known in basis
    else:
        for known in [(0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0), (1, 1, 1, 1, 1, 0)]:
            assert known in basis


def test_enumeration_matches_direct_support():
    for b in (0, 1):
        spec = ParitySpec(5, b)
        state = prepare_parity_state_direct(spec)
        support = [
            index_to_bits(int(i), 5)
            for i in np.nonzero(np.abs(state.amplitudes) > 0)[0]
        ]
        assert support == enumerate_parity_basis(spec)


def test_enumerate_refuses_huge_registers():
    with pytest.raises(ValueError):
        enumerate_parity_basis(ParitySpec(40, 0))


# --- circuits ---


def test_bell_circuit_gate_list():
    circuit = build_parity_circuit(ParitySpec(2, 0))
    assert [(g.kind, g.qubits) for g in circuit.gates] == [
        ("H", (1,)),
        ("CNOT", (1, 2)),
    ]


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("b", [0, 1])
def test_circuit_matches_direct_construction(n, b):
    spec = ParitySpec(n, b)
    simulated = simulate_circuit(build_parity_circuit(spec), new_zero_state(n))
    np.testing.assert_allclose(
        simulated.amplitudes,
        prepare_parity_state_direct(spec).amplitudes,
        atol=1e-12,
    )


def test_six_qubit_circuit_has_32_equal_outcomes():
    state = simulate_circuit(
        build_parity_circuit(ParitySpec(6, 0)), new_zero_state(6)
    )
    probs = np.abs(state.amplitudes) ** 2
    support = probs[probs > 1e-15]
    assert len(support) == 32
    np.testing.assert_allclose(support, 1 / 32, atol=1e-12)


def test_xor_circuit_structure():
    circuit = build_xor_circuit(4)
    assert [(g.kind, g.qubits) for g in circuit.gates] == [
        ("CNOT", (1, 4)),
        ("CNOT", (2, 4)),
        ("CNOT", (3, 4)),
    ]


def test_xor_circuit_rejects_single_qubit():
    with pytest.raises(ValueError):
        build_xor_circuit(1)


@pytest.mark.parametrize(
    "bits,expected",
    [
        ((1, 0, 1, 0, 0, 0), 0),
        ((1, 0, 1, 0, 1, 0), 1),
        ((0, 0, 0), 0),
    ],
)
def test_xor_circuit_folds_parity_into_last_qubit(bits, expected):
    n = len(bits)
    out = simulate_circuit(build_xor_circuit(n), basis_state(bits))
    result = index_to_bits(int(np.argmax(np.abs(out.amplitudes))), n)
    assert result[-1] == expected


@settings(max_examples=50, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=2, max_size=10))
def test_xor_circuit_agrees_with_classical_decode(bits):
    bits = tuple(bits)
    out = simulate_circuit(build_xor_circuit(len(bits)), basis_state(bits))
    result = index_to_bits(int(np.argmax(np.abs(out.amplitudes))), len(bits))
    assert result[-1] == xor_decode_classical(bits)


# --- classical decode ---


@pytest.mark.parametrize(
    "bits,expected",
    [((1, 0, 0), 1), ((0, 1, 1), 0), ((0, 0, 0, 0), 0), ((1,), 1)],
)
def test_decode_cases(bits, expected):
    assert xor_decode_classical(bits) == expected


def test_decode_rejects_empty():
    with pytest.raises(ValueError):
        xor_decode_classical(())


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("b", [0, 1])
def test_decode_totality_over_enumerated_basis(n, b):
    # Recovery mechanism: every supported outcome decodes to the secret.
    for bits in enumerate_parity_basis(ParitySpec(n, b)):
        assert xor_decode_classical(bits) == b


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint32])
def test_numpy_integer_n_gives_the_plain_int_results(dtype):
    spec = ParitySpec(dtype(4), 1)
    assert spec == ParitySpec(4, 1)
    assert type(spec.n) is int
    np.testing.assert_array_equal(
        prepare_parity_state_direct(spec).amplitudes,
        prepare_parity_state_direct(ParitySpec(4, 1)).amplitudes,
    )
    circuit = build_xor_circuit(dtype(4))
    assert circuit == build_xor_circuit(4)
    assert type(circuit.num_qubits) is int
    with pytest.raises(ValueError, match="participant count must be an int >= 2, got 1"):
        ParitySpec(dtype(1), 0)
    with pytest.raises(ValueError, match="XOR circuit needs at least 2 qubits, got 1"):
        build_xor_circuit(dtype(1))
