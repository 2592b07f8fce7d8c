import numpy as np
import pytest

from qvss.circuit import (
    CircuitDescription,
    Gate,
    emit_assembly,
    parse_assembly,
    simulate_circuit,
)
from qvss.errors import FormatError
from qvss.parity import ParitySpec, build_parity_circuit, build_xor_circuit
from qvss.statevector import new_zero_state


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("SWAP", (1, 2))
    with pytest.raises(ValueError):
        Gate("H", (1, 2))
    with pytest.raises(ValueError):
        Gate("CNOT", (2, 2))


def test_circuit_rejects_out_of_range_operands():
    with pytest.raises(ValueError):
        CircuitDescription(2, (Gate("H", (3,)),))


def test_empty_circuit_is_identity():
    state = new_zero_state(3)
    out = simulate_circuit(CircuitDescription(3, ()), state)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_single_x_flips():
    out = simulate_circuit(CircuitDescription(1, (Gate("X", (1,)),)), new_zero_state(1))
    np.testing.assert_allclose(out.amplitudes, [0, 1])


def test_simulate_rejects_size_mismatch():
    with pytest.raises(ValueError):
        simulate_circuit(CircuitDescription(2, ()), new_zero_state(3))


def test_toffoli_through_circuit():
    circuit = CircuitDescription(
        3, (Gate("X", (1,)), Gate("X", (2,)), Gate("TOFFOLI", (1, 2, 3)))
    )
    out = simulate_circuit(circuit, new_zero_state(3))
    assert np.argmax(np.abs(out.amplitudes)) == 0b111


# --- assembly emission ---


def test_emit_single_h():
    text = emit_assembly(CircuitDescription(1, (Gate("H", (1,)),)))
    assert text == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[1];\n"
        "creg c[1];\n"
        "h q[0];\n"
    )


def test_emit_is_deterministic():
    circuit = build_parity_circuit(ParitySpec(4, 1))
    assert emit_assembly(circuit) == emit_assembly(circuit)
    assert emit_assembly(circuit).encode() == emit_assembly(circuit).encode()


def test_emit_xor_circuit_lines():
    lines = emit_assembly(build_xor_circuit(3)).splitlines()
    cx = [line for line in lines if line.startswith("cx")]
    assert cx == ["cx q[0],q[2];", "cx q[1],q[2];"]


def test_emit_parity_circuit_gate_counts():
    # Construction for (6, 1): H on 1..5, fan-in CNOTs, one X.
    lines = emit_assembly(build_parity_circuit(ParitySpec(6, 1))).splitlines()
    opcodes = [line.split()[0] for line in lines[4:]]
    assert opcodes.count("h") == 5
    assert opcodes.count("cx") == 5
    assert opcodes.count("x") == 1
    assert len(opcodes) == 11


def test_emit_uses_zero_based_registers():
    text = emit_assembly(CircuitDescription(2, (Gate("CNOT", (1, 2)),)))
    assert "cx q[0],q[1];" in text
    gate_lines = [line for line in text.splitlines() if line.startswith("cx")]
    assert all("q[2]" not in line for line in gate_lines)


# --- round trip through the emitter's own reader ---


@pytest.mark.parametrize(
    "circuit",
    [
        CircuitDescription(1, (Gate("H", (1,)),)),
        CircuitDescription(3, (Gate("Z", (2,)), Gate("TOFFOLI", (3, 1, 2)))),
        build_parity_circuit(ParitySpec(5, 1)),
        build_xor_circuit(6),
    ],
)
def test_parse_round_trip(circuit):
    assert parse_assembly(emit_assembly(circuit)) == circuit


def test_parse_rejects_unknown_statement():
    with pytest.raises(FormatError):
        parse_assembly("qreg q[2];\nswap q[0],q[1];\n")


def test_parse_rejects_missing_register_declaration():
    with pytest.raises(FormatError):
        parse_assembly("h q[0];\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("qreg q[2];\nh q[5];\n", "line 2: operand q[5] outside qreg q[2]"),
        ("qreg q[0];\n", "line 1: qreg size must be an int >= 1, got 0"),
        ("qreg q[2];\ncx q[0],q[0];\n", "line 2: CNOT operands must be distinct"),
        ("qreg q[2];\nh q[0],q[1];\n", "line 2: H takes 1 operand(s)"),
        ("qreg q[2];\nh q[0];\nqreg q[3];\n", "line 3: duplicate qreg declaration"),
        ("qreg q[2];\nh q[0]\n", "line 2: unrecognized statement 'h q[0]'"),
        ("qreg q[2];\nswap q[0],q[1];\n", "line 2: unknown opcode 'swap'"),
        ("h q[0];\n", "line 1: gate before qreg declaration"),
        ("OPENQASM 2.0;\ncreg c[2];\n", "missing qreg declaration"),
        pytest.param(f"qreg q[{'9' * 5000}];\n", "line 1: ", id="over-int-digit-limit"),
    ],
)
def test_malformed_assembly_is_a_format_error_naming_its_line(text, message):
    with pytest.raises(FormatError) as err:
        parse_assembly(text)
    assert str(err.value).startswith(message)
