"""Gate-list circuits over named qubits, simulation, and assembly emission.

The assembly dialect is a deterministic OpenQASM 2.0 subset: UTF-8, LF line
endings, a prologue declaring the qubit and classical-bit registers, one
gate per line using the opcodes h/x/z/cx/ccx, then ``measure q -> c;``
(q[j] into c[j]).  Circuit qubit j maps to register slot j-1 (the file is
zero-based while the in-memory naming is one-based), so a Qiskit count
string, c[n-1] first, reads qubit n to qubit 1.  Identical circuits always
emit byte-identical text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import statevector as sv
from .errors import FormatError, int_in_range
from .statevector import StateVector

#: Gate kind -> (assembly opcode, operand count, statevector operation).
_GATES = {
    "H": ("h", 1, sv.apply_h),
    "X": ("x", 1, sv.apply_x),
    "Z": ("z", 1, sv.apply_z),
    "CNOT": ("cx", 2, sv.apply_cnot),
    "TOFFOLI": ("ccx", 3, sv.apply_toffoli),
}

#: Gate kind -> operand count.
GATE_ARITY = {kind: arity for kind, (_, arity, _) in _GATES.items()}
_OPCODES = {kind: opcode for kind, (opcode, _, _) in _GATES.items()}
_KINDS_BY_OPCODE = {v: k for k, v in _OPCODES.items()}

_MEASURE = "measure q -> c;"  # every qubit into its classical bit


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} operand(s), "
                f"got {self.qubits!r}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} operands must be distinct: {self.qubits!r}")


@dataclass(frozen=True)
class CircuitDescription:
    """Ordered gate list over qubits 1..num_qubits."""

    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        message = "circuit qubit count must be an int >= 1, got {!r}"
        n = int_in_range(self.num_qubits, 1, math.inf, message)
        gates = tuple(Gate(gate.kind, sv.check_subset(n, gate.qubits)) for gate in self.gates)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "gates", gates)


def simulate_circuit(circuit: CircuitDescription, initial: StateVector) -> StateVector:
    """Apply the circuit's gates in order, starting from `initial`."""
    if circuit.num_qubits != initial.num_qubits:
        raise ValueError(
            f"circuit is over {circuit.num_qubits} qubits but the state has "
            f"{initial.num_qubits}"
        )
    state = initial
    for gate in circuit.gates:
        state = _GATES[gate.kind][2](state, *gate.qubits)
    return state


def emit_assembly(circuit: CircuitDescription) -> str:
    """Render the circuit as portable quantum-assembly text."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
        f"creg c[{circuit.num_qubits}];",
    ]
    for gate in circuit.gates:
        operands = ",".join(f"q[{q - 1}]" for q in gate.qubits)
        lines.append(f"{_OPCODES[gate.kind]} {operands};")
    return "\n".join([*lines, _MEASURE]) + "\n"


_QREG_RE = re.compile(r"^qreg q\[(\d+)\];$")
_GATE_RE = re.compile(r"^([a-z]+) (q\[\d+\](?:,q\[\d+\])*);$")


def parse_assembly(text: str) -> CircuitDescription:
    """Read back the dialect produced by :func:`emit_assembly`.

    Malformed input raises ``FormatError`` naming its line.
    """
    num_qubits = None
    gates: list[Gate] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line == _MEASURE or line.startswith(("OPENQASM", "include", "creg")):
            continue
        # Every check raises ValueError; the line number is added once, below.
        try:
            m = _QREG_RE.match(line)
            if m:
                if num_qubits is not None:
                    raise ValueError("duplicate qreg declaration")
                message = "qreg size must be an int >= 1, got {!r}"
                num_qubits = int_in_range(int(m.group(1)), 1, math.inf, message)
                continue
            m = _GATE_RE.match(line)
            if m is None:
                raise ValueError(f"unrecognized statement {line!r}")
            opcode, operands = m.groups()
            kind = _KINDS_BY_OPCODE.get(opcode)
            if kind is None:
                raise ValueError(f"unknown opcode {opcode!r}")
            if num_qubits is None:
                raise ValueError("gate before qreg declaration")
            message = f"operand q[{{}}] outside qreg q[{num_qubits}]"
            slots = [int_in_range(int(s[2:-1]), 0, num_qubits - 1, message)
                     for s in operands.split(",")]
            gates.append(Gate(kind, tuple(slot + 1 for slot in slots)))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if num_qubits is None:
        raise FormatError("missing qreg declaration")
    return CircuitDescription(num_qubits, tuple(gates))
