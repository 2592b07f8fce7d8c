"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Seeds
are fixed and documented inline so every statistical check is replayable.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from qvss.baseline import (
    build_nn_matrix_sets,
    comparison_report,
    restricted_sets_indistinguishable,
    stack_and_weight,
)
from qvss.circuit import simulate_circuit
from qvss.cli import main
from qvss.errors import IncompleteSharesError
from qvss.image_io import BinaryImage, from_pixel_list, write_pbm
from qvss.parity import (
    ParitySpec,
    build_parity_circuit,
    build_xor_circuit,
    enumerate_parity_basis,
    prepare_parity_state_direct,
    xor_decode_classical,
)
from qvss.protocol import (
    BACKEND_SAMPLED,
    BACKEND_STATEVECTOR,
    recover_image,
    share_image,
)
from qvss.statevector import (
    StateVector,
    bits_to_index,
    index_to_bits,
    marginal_distribution,
    measure_shots,
    new_zero_state,
)
from scipy.stats import chisquare

SHOT_SEED = 8192  # criterion 3 sampling seed
CHI_SEED = 2025  # criterion 8 sampling seed


def _report(label: str, check):
    start = time.perf_counter()
    try:
        check()
    except AssertionError:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_three_party_state_vectors():
    def check():
        for b in (0, 1):
            state = prepare_parity_state_direct(ParitySpec(3, b))
            nonzero = np.abs(state.amplitudes) > 0
            assert int(nonzero.sum()) == 4
            assert np.abs(np.abs(state.amplitudes[nonzero]) - 0.5).max() < 1e-12
        # the four-term supports themselves
        s0 = prepare_parity_state_direct(ParitySpec(3, 0)).amplitudes
        assert set(np.nonzero(s0)[0]) == {0b000, 0b011, 0b101, 0b110}
        s1 = prepare_parity_state_direct(ParitySpec(3, 1)).amplitudes
        assert set(np.nonzero(s1)[0]) == {0b111, 0b001, 0b010, 0b100}

    _report("criterion 1: (3,3) state vectors", check)


def test_criterion_2_three_party_decode_vectors():
    def check():
        assert xor_decode_classical((0, 0, 0)) == 0  # white
        assert xor_decode_classical((1, 1, 1)) == 1  # black
        assert xor_decode_classical((1, 0, 0)) == 1  # black
        assert xor_decode_classical((0, 1, 1)) == 0  # white

    _report("criterion 2: (3,3) decode vectors", check)


def test_criterion_3_six_party_experiment_replay():
    start = time.perf_counter()

    def check():
        amp = 1.0 / np.sqrt(32)
        for b in (0, 1):
            basis = enumerate_parity_basis(ParitySpec(6, b))
            assert len(basis) == 32
            assert len(set(basis)) == 32
            state = prepare_parity_state_direct(ParitySpec(6, b))
            for bits in basis:
                assert abs(state.amplitudes[bits_to_index(bits)] - amp) < 1e-12

            counts = measure_shots(state, 8192, np.random.default_rng(SHOT_SEED))
            empirical = counts / 8192
            support = np.array([bits_to_index(bits) for bits in basis])
            assert np.abs(empirical[support] - 1 / 32).max() < 0.006
            off_support = np.setdiff1d(np.arange(64), support)
            assert counts[off_support].sum() == 0

        # XOR replays on the six-qubit circuit
        circuit = build_xor_circuit(6)
        for bits, expected in (((1, 0, 1, 0, 0, 0), 0), ((1, 0, 1, 0, 1, 0), 1)):
            amps = np.zeros(64, dtype=np.complex128)
            amps[bits_to_index(bits)] = 1.0
            out = simulate_circuit(circuit, StateVector(6, amps))
            result = index_to_bits(int(np.argmax(np.abs(out.amplitudes))), 6)
            assert result[-1] == expected

        assert time.perf_counter() - start < 5.0

    _report("criterion 3: (6,6) experiment replay", check)


def test_criterion_4_theorem_1_exhaustive_and_sampled():
    start = time.perf_counter()

    def check():
        for n in range(2, 11):
            for b in (0, 1):
                spec = ParitySpec(n, b)
                enumerated = enumerate_parity_basis(spec)
                assert len(enumerated) == 1 << (n - 1)
                assert all(xor_decode_classical(bits) == b for bits in enumerated)

                state = prepare_parity_state_direct(spec)
                rng = np.random.default_rng(10_000 + 2 * n + b)
                counts = measure_shots(state, 10_000, rng)
                assert counts.sum() == 10_000
                for index in np.nonzero(counts)[0]:
                    assert xor_decode_classical(index_to_bits(int(index), n)) == b

        assert time.perf_counter() - start < 10.0

    _report("criterion 4: theorem 1, zero decode failures", check)


def test_criterion_5_theorem_2_exact_uniform_marginals():
    start = time.perf_counter()

    def check():
        for n in range(2, 9):
            states = {
                b: prepare_parity_state_direct(ParitySpec(n, b)) for b in (0, 1)
            }
            for k in range(1, n):
                uniform = 1.0 / (1 << k)
                for subset in combinations(range(1, n + 1), k):
                    marg0 = marginal_distribution(states[0], subset)
                    marg1 = marginal_distribution(states[1], subset)
                    assert np.abs(marg0 - uniform).max() < 1e-12
                    assert np.abs(marg1 - uniform).max() < 1e-12
                    assert np.abs(marg0 - marg1).max() < 1e-12

        assert time.perf_counter() - start < 30.0

    _report("criterion 5: theorem 2, proper subsets uniform", check)


def test_criterion_6_circuit_direct_equivalence():
    start = time.perf_counter()

    def check():
        for n in range(2, 13):
            for b in (0, 1):
                spec = ParitySpec(n, b)
                simulated = simulate_circuit(
                    build_parity_circuit(spec), new_zero_state(n)
                )
                direct = prepare_parity_state_direct(spec)
                assert np.abs(simulated.amplitudes - direct.amplitudes).max() < 1e-12

        assert time.perf_counter() - start < 10.0

    _report("criterion 6: circuit equals direct construction", check)


def test_criterion_7_round_trip_and_refusal():
    start = time.perf_counter()

    def check():
        rng = np.random.default_rng(7777)
        participant_counts = (2, 3, 6)
        for trial in range(20):
            width = int(rng.integers(1, 65))
            height = int(rng.integers(1, 65))
            image = BinaryImage(
                width, height, rng.integers(0, 2, size=width * height)
            )
            n = participant_counts[trial % 3]
            seed = int(rng.integers(0, 2**32))
            for backend in (BACKEND_STATEVECTOR, BACKEND_SAMPLED):
                session, shares = share_image(image, n, backend, seed)
                assert recover_image(shares, session, seed + 1) == image

            # strict subsets refuse on fresh sessions
            session, shares = share_image(image, n, BACKEND_SAMPLED, seed)
            with pytest.raises(IncompleteSharesError):
                recover_image(shares[: n - 1], session, seed)

        assert time.perf_counter() - start < 30.0

    _report("criterion 7: image round trips and subset refusal", check)


def test_criterion_8_backend_equivalence_chi_square():
    def check():
        # 100x100 random image = 10^4 pixels, n=4, documented seed CHI_SEED.
        rng = np.random.default_rng(88)
        image = BinaryImage(100, 100, rng.integers(0, 2, size=10_000))
        session, _ = share_image(image, 4, BACKEND_SAMPLED, CHI_SEED)

        subset = (1, 2, 3)
        exact = marginal_distribution(
            prepare_parity_state_direct(ParitySpec(4, 0)), subset
        )
        counts = np.zeros(8, dtype=np.int64)
        rows = np.unpackbits(session.registers, axis=1, count=image.pixel_count).T
        for outcome in rows:
            counts[(outcome[0] << 2) | (outcome[1] << 1) | outcome[2]] += 1
        result = chisquare(counts, f_exp=exact * image.pixel_count)
        assert result.pvalue > 0.001

    _report("criterion 8: sampled bits match exact marginal", check)


def test_criterion_9_classical_baseline(tmp_path, capsys):
    start = time.perf_counter()

    def check():
        for n in range(2, 7):
            m = 1 << (n - 1)
            sets = build_nn_matrix_sets(n)
            assert sets.m == m  # expansion factor
            _, white = stack_and_weight(sets.c0_base, range(1, n + 1))
            _, black = stack_and_weight(sets.c1_base, range(1, n + 1))
            assert white == m - 1
            assert black == m
            for k in range(1, n):
                for rows in combinations(range(1, n + 1), k):
                    assert restricted_sets_indistinguishable(sets, rows)

        report = comparison_report(3, from_pixel_list(4, 1, [0, 1, 1, 0]), seed=5)
        assert [row[1] for row in report.rows.values()] == ["Yes", "No", "No"]
        assert [row[0] for row in report.rows.values()] == ["Yes", "Yes", "Yes"]

        secret = tmp_path / "secret.pbm"
        secret.write_bytes(write_pbm(from_pixel_list(4, 1, [0, 1, 1, 0])))
        assert main(["compare", str(secret), "--n", "3", "--seed", "5"]) == 0
        stdout = capsys.readouterr().out
        for line, quantum_value in zip(
            ("single-pixel parallel processing", "pixel expansion", "loss in resolution"),
            ("Yes", "No", "No"),
        ):
            row = next(row for row in stdout.splitlines() if row.startswith(line))
            assert row.split()[-1] == quantum_value

        assert time.perf_counter() - start < 30.0

    _report("criterion 9: classical baseline conditions and comparison", check)
