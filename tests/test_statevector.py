import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvss import statevector
from qvss.errors import StateCorruptionError
from qvss.parity import ParitySpec, prepare_parity_state_direct
from qvss.statevector import (
    MAX_QUBITS,
    NORM_TOL,
    StateVector,
    apply_cnot,
    apply_h,
    apply_toffoli,
    apply_x,
    apply_z,
    bits_to_index,
    index_to_bits,
    marginal_distribution,
    measure_all,
    measure_shots,
    new_zero_state,
    probability_of,
    sample,
)

S2 = 1.0 / np.sqrt(2.0)


def random_state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def basis_state(bits) -> StateVector:
    n = len(bits)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[bits_to_index(bits)] = 1.0
    return StateVector(n, amps)


# --- construction ---


def test_zero_state_single_qubit():
    state = new_zero_state(1)
    np.testing.assert_allclose(state.amplitudes, [1, 0])


def test_zero_state_two_qubits():
    state = new_zero_state(2)
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])


def test_zero_state_probability():
    state = new_zero_state(3)
    assert probability_of(state, (0, 0, 0)) == 1.0


@pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1, "3"])
def test_zero_state_rejects_bad_sizes(n):
    with pytest.raises(ValueError):
        new_zero_state(n)


def test_supports_sixteen_qubits():
    assert new_zero_state(16).dim == 1 << 16


# --- single-qubit gates ---


def test_h_on_zero_gives_plus():
    state = apply_h(new_zero_state(1), 1)
    np.testing.assert_allclose(state.amplitudes, [S2, S2], atol=1e-15)


def test_h_on_msb_of_two_qubits():
    # |00> -> (|00> + |10>)/sqrt(2): qubit 1 is the most significant bit
    state = apply_h(new_zero_state(2), 1)
    np.testing.assert_allclose(state.amplitudes, [S2, 0, S2, 0], atol=1e-15)


def test_x_flips_zero():
    state = apply_x(new_zero_state(1), 1)
    np.testing.assert_allclose(state.amplitudes, [0, 1])


def test_z_fixes_zero():
    state = apply_z(new_zero_state(1), 1)
    np.testing.assert_allclose(state.amplitudes, [1, 0])


def test_z_negates_one():
    state = apply_z(basis_state((1,)), 1)
    np.testing.assert_allclose(state.amplitudes, [0, -1])


@pytest.mark.parametrize("gate", [apply_h, apply_x, apply_z])
@pytest.mark.parametrize("q", [0, 4, -1])
def test_single_qubit_gates_reject_bad_index(gate, q):
    with pytest.raises(IndexError):
        gate(new_zero_state(3), q)


def test_gates_do_not_mutate_input():
    state = new_zero_state(2)
    apply_h(state, 1)
    apply_cnot(state, 1, 2)
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])


# --- controlled gates ---


def test_cnot_flips_target_when_control_set():
    state = apply_cnot(basis_state((1, 0)), 1, 2)
    np.testing.assert_allclose(state.amplitudes, basis_state((1, 1)).amplitudes)


def test_cnot_leaves_target_when_control_clear():
    state = apply_cnot(new_zero_state(2), 1, 2)
    np.testing.assert_allclose(state.amplitudes, new_zero_state(2).amplitudes)


def test_cnot_reversed_direction():
    state = apply_cnot(basis_state((0, 1)), 2, 1)
    np.testing.assert_allclose(state.amplitudes, basis_state((1, 1)).amplitudes)


def test_cnot_rejects_equal_operands():
    with pytest.raises(ValueError):
        apply_cnot(new_zero_state(2), 1, 1)


def test_toffoli_truth_table():
    cases = {
        (0, 0, 0): (0, 0, 0),
        (1, 0, 0): (1, 0, 0),
        (0, 1, 1): (0, 1, 1),
        (1, 1, 0): (1, 1, 1),
        (1, 1, 1): (1, 1, 0),
    }
    for inp, expected in cases.items():
        out = apply_toffoli(basis_state(inp), 1, 2, 3)
        np.testing.assert_allclose(
            out.amplitudes, basis_state(expected).amplitudes, err_msg=str(inp)
        )


def test_toffoli_rejects_duplicates():
    with pytest.raises(ValueError):
        apply_toffoli(new_zero_state(3), 1, 2, 2)


# --- involutions and norm preservation (random states) ---


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_involutions(n, q, seed):
    q = min(q, n)
    state = random_state(n, seed)
    for gate in (apply_h, apply_x, apply_z):
        twice = gate(gate(state, q), q)
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cnot_and_toffoli_involutions(seed):
    state = random_state(4, seed)
    twice = apply_cnot(apply_cnot(state, 2, 4), 2, 4)
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)
    twice = apply_toffoli(apply_toffoli(state, 1, 3, 2), 1, 3, 2)
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gates=st.lists(st.integers(0, 4), max_size=12))
def test_norm_preserved_by_gate_sequences(seed, gates):
    state = random_state(3, seed)
    for pick in gates:
        if pick == 0:
            state = apply_h(state, 1 + pick % 3)
        elif pick == 1:
            state = apply_x(state, 2)
        elif pick == 2:
            state = apply_z(state, 3)
        elif pick == 3:
            state = apply_cnot(state, 1, 3)
        else:
            state = apply_toffoli(state, 1, 2, 3)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < NORM_TOL


# --- measurement ---


def test_measure_basis_state_is_certain():
    rng = np.random.default_rng(0)
    outcome, collapsed = measure_all(new_zero_state(3), rng)
    assert outcome == (0, 0, 0)
    np.testing.assert_allclose(collapsed.amplitudes, new_zero_state(3).amplitudes)


def test_measure_collapses_to_outcome():
    state = apply_cnot(apply_h(new_zero_state(2), 1), 1, 2)  # Bell pair
    rng = np.random.default_rng(11)
    outcome, collapsed = measure_all(state, rng)
    assert outcome in {(0, 0), (1, 1)}
    assert probability_of(collapsed, outcome) == 1.0


def test_measure_rejects_corrupt_state():
    bad = StateVector(1, np.array([0.5, 0.5], dtype=np.complex128))
    with pytest.raises(StateCorruptionError):
        measure_all(bad, np.random.default_rng(0))


def test_measure_rejects_a_state_with_a_nan_amplitude():
    bad = StateVector(1, np.array([np.nan, 1.0], dtype=np.complex128))
    with pytest.raises(StateCorruptionError):
        measure_all(bad, np.random.default_rng(0))


def test_measure_all_frequencies_match_probabilities():
    # Aggregate single draws and compare against exact probabilities
    # within 3-sigma binomial bounds per basis state.
    state = apply_cnot(apply_h(new_zero_state(2), 1), 1, 2)
    rng = np.random.default_rng(123)
    draws = 8192
    counts = {}
    for _ in range(draws):
        outcome, _ = measure_all(state, rng)
        counts[outcome] = counts.get(outcome, 0) + 1
    assert set(counts) == {(0, 0), (1, 1)}
    for outcome, count in counts.items():
        p = probability_of(state, outcome)
        sigma = np.sqrt(p * (1 - p) * draws)
        assert abs(count - p * draws) < 3 * sigma


def test_measure_shots_counts_sum():
    state = apply_h(new_zero_state(1), 1)
    counts = measure_shots(state, 1000, np.random.default_rng(5))
    assert counts.sum() == 1000
    assert counts.shape == (2,)


def test_measure_shots_rejects_nonpositive():
    with pytest.raises(ValueError):
        measure_shots(new_zero_state(1), 0, np.random.default_rng(0))


# Drawn from the parent of the change that routed every draw through one
# sampler (2026-10-18): 20 ``measure_all`` outcomes, then the counts of one
# 1000-shot ``measure_shots`` call, all from one ``default_rng(7)``.
MEASUREMENT_PINS = {
    "parity5": (
        [21, 28, 25, 7, 8, 26, 1, 26, 25, 14, 8, 8, 8, 14, 16, 16, 31, 25, 19, 31],
        [0, 65, 59, 0, 77, 0, 0, 62, 63, 0, 0, 57, 0, 63, 60, 0,
         62, 0, 0, 65, 0, 66, 52, 0, 0, 71, 58, 0, 61, 0, 0, 59],
    ),
    "random4": (
        [9, 10, 9, 1, 2, 10, 0, 10, 9, 6, 2, 2, 1, 6, 8, 9, 15, 9, 9, 14],
        [110, 182, 25, 13, 6, 59, 106, 5, 23, 285, 92, 3, 3, 40, 44, 4],
    ),
}


@pytest.mark.parametrize("name", sorted(MEASUREMENT_PINS))
def test_measurement_draws_are_pinned(name):
    state = {
        "parity5": prepare_parity_state_direct(ParitySpec(5, 1)),
        "random4": random_state(4, 3),
    }[name]
    expected_draws, expected_counts = MEASUREMENT_PINS[name]
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(20):
        outcome, collapsed = measure_all(state, rng)
        draws.append(bits_to_index(outcome))
        assert probability_of(collapsed, outcome) == 1.0
    assert draws == expected_draws
    assert measure_shots(state, 1000, rng).tolist() == expected_counts


# --- the guide-table sampler draws what Generator.choice draws ---


def choice_probabilities(state: StateVector) -> np.ndarray:
    probs = np.abs(state.amplitudes) ** 2
    return probs / float(probs.sum())


def assert_sample_is_generator_choice(state: StateVector, seed: int, size) -> None:
    # Equal outcomes of equal type, and the same generator state after.
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample(state, ours, size)
    expected = theirs.choice(state.dim, size=size, p=choice_probabilities(state))
    assert type(got) is type(expected)
    if size is not None:
        assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert ours.random() == theirs.random()


SAMPLE_STATES = {
    "parity": lambda n, seed: prepare_parity_state_direct(ParitySpec(n, seed % 2)),
    "basis": lambda n, seed: basis_state(index_to_bits(seed * 40503 % (1 << n), n)),
    "random": lambda n, seed: random_state(n, seed),
}


@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in range(1, MAX_QUBITS + 1) for kind in SAMPLE_STATES
     if n > 1 or kind != "parity"],
)
def test_sample_draws_what_generator_choice_draws(n, kind):
    for seed in range(5):
        state = SAMPLE_STATES[kind](n, seed)
        for size in (None, 0, 1, 7, 1 << 16):
            assert_sample_is_generator_choice(state, seed, size)


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size=None):
        assert size == (None if self.values.ndim == 0 else len(self.values))
        return self.values.copy()


@pytest.mark.parametrize("kind", ["parity", "random"])
def test_sample_of_draws_equal_to_a_cdf_value_or_a_bucket_edge_is_the_next_outcome(kind):
    # u equal to cdf[i] lies past outcome i, and u = j/G starts bucket j:
    # the ties a binary search with side="right" settles.
    state = SAMPLE_STATES[kind](6, 1)
    cdf = choice_probabilities(state).cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0), np.arange(64) / 64])
    u = u[u < 1]  # random() never returns 1
    expected = cdf.searchsorted(u, side="right")
    for size in (len(u), 7, 1):
        for start in range(0, len(u) - size + 1, size):
            draws = sample(state, _FixedUniforms(u[start : start + size]), size)
            np.testing.assert_array_equal(draws, expected[start : start + size])
    for value, outcome in zip(u, expected):
        assert sample(state, _FixedUniforms(value), None) == outcome


@pytest.mark.parametrize("seed", range(5))
def test_sample_binary_searches_draws_far_past_their_guide_entry(seed):
    # Half the mass on outcome 0 and 2^-8 over the next 2^14 outcomes: 64
    # of them per 2^-16 guide bucket, so draws that land there are still
    # short of their outcome after the forward steps.
    n, size = 16, 1 << 16
    probs = np.full(1 << n, (0.5 - 2.0**-8) / ((1 << n) - (1 << 14) - 1))
    probs[0] = 0.5
    probs[1 : (1 << 14) + 1] = 2.0**-22
    state = StateVector(n, np.sqrt(probs).astype(np.complex128))
    assert_sample_is_generator_choice(state, seed, size)

    cdf = choice_probabilities(state).cumsum()
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(size)
    start = cdf.searchsorted(np.floor(u * size) / size, side="right")
    steps = cdf.searchsorted(u, side="right") - start
    assert (steps > statevector._GUIDE_STEPS).sum() > 100


# --- probability_of ---


def test_probability_checks_length():
    with pytest.raises(ValueError):
        probability_of(new_zero_state(3), (0, 0))


def test_probability_checks_bit_values():
    with pytest.raises(ValueError):
        probability_of(new_zero_state(2), (0, 2))


# --- marginals ---


def test_marginal_of_basis_state():
    dist = marginal_distribution(new_zero_state(3), [2, 3])
    np.testing.assert_allclose(dist.probabilities, [1, 0, 0, 0])


def test_marginal_over_full_register_matches_probabilities():
    state = random_state(4, 77)
    dist = marginal_distribution(state, [1, 2, 3, 4])
    np.testing.assert_allclose(
        dist.probabilities, np.abs(state.amplitudes) ** 2, atol=1e-15
    )


def test_marginal_respects_subset_order():
    state = basis_state((1, 0))
    np.testing.assert_allclose(
        marginal_distribution(state, [1, 2]).probabilities, [0, 0, 1, 0]
    )
    np.testing.assert_allclose(
        marginal_distribution(state, [2, 1]).probabilities, [0, 1, 0, 0]
    )


def test_marginal_against_bruteforce_oracle():
    # Independent oracle: accumulate |amplitude|^2 per subset pattern with
    # explicit python loops.
    state = random_state(5, 31337)
    subset = (2, 4, 5)
    expected = [0.0] * 8
    for index, amp in enumerate(state.amplitudes):
        pattern = 0
        for q in subset:
            pattern = (pattern << 1) | ((index >> (5 - q)) & 1)
        expected[pattern] += abs(amp) ** 2
    dist = marginal_distribution(state, subset)
    np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)


@pytest.mark.parametrize("subset", [[], [1, 1], [0], [4]])
def test_marginal_rejects_bad_subsets(subset):
    with pytest.raises(ValueError):
        marginal_distribution(new_zero_state(3), subset)


# --- index helpers ---


def test_bit_round_trip():
    for index in range(16):
        assert bits_to_index(index_to_bits(index, 4)) == index


def test_bitstring_reads_big_endian():
    assert index_to_bits(0b100, 3) == (1, 0, 0)
