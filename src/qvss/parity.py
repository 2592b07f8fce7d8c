"""Parity superposition states and the XOR decoding that inverts them.

For n participants and a secret bit b, the encoding state is the equal
superposition of every n-bit string whose XOR is b; each of the 2^(n-1)
contributing basis states carries amplitude 1/sqrt(2^(n-1)).  Measuring
and XOR-ing all bits therefore always returns b, while any proper subset
of the bits is uniformly distributed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitDescription, Gate
from .errors import int_in_range
from .statevector import MAX_QUBITS, StateVector, index_to_bits


@dataclass(frozen=True)
class ParitySpec:
    """Scheme parameters: participant count n and secret bit b.

    b=0 encodes a white pixel, b=1 a black pixel.
    """

    n: int
    b: int

    def __post_init__(self):
        n = int_in_range(self.n, 2, math.inf, "participant count must be an int >= 2, got {!r}")
        b = int_in_range(self.b, 0, 1, "secret bit must be 0 or 1, got {!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)


def index_parities(size: int) -> np.ndarray:
    """Bit parity of every integer in 0..size-1, as uint8."""
    v = np.arange(size, dtype=np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return (v & np.uint64(1)).astype(np.uint8)


def _register_size(spec: ParitySpec) -> int:
    message = f"statevector registers support at most {MAX_QUBITS} qubits, got {{!r}}"
    return int_in_range(spec.n, 2, MAX_QUBITS, message)


def prepare_parity_state_direct(spec: ParitySpec) -> StateVector:
    """Construct the parity state by writing its amplitudes directly."""
    size = 1 << _register_size(spec)
    amp = 1.0 / np.sqrt(1 << (spec.n - 1))
    amps = np.where(index_parities(size) == spec.b, amp, 0.0).astype(np.complex128)
    return StateVector(spec.n, amps)


def enumerate_parity_basis(spec: ParitySpec) -> list[tuple[int, ...]]:
    """All 2^(n-1) bitstrings of parity b, in ascending integer order, for
    n up to the register cap."""
    size = 1 << _register_size(spec)
    indices = np.nonzero(index_parities(size) == spec.b)[0]
    return [index_to_bits(int(i), spec.n) for i in indices]


def build_parity_circuit(spec: ParitySpec) -> CircuitDescription:
    """Gate circuit preparing the parity state from |0...0>.

    Construction: H on qubits 1..n-1, a CNOT from each of them into qubit
    n (folding their XOR into it), then X on qubit n iff b=1.  Uses only
    the package's gate set and simulates to the direct state exactly.
    """
    gates = [Gate("H", (q,)) for q in range(1, spec.n)]
    gates += [Gate("CNOT", (q, spec.n)) for q in range(1, spec.n)]
    if spec.b == 1:
        gates.append(Gate("X", (spec.n,)))
    return CircuitDescription(spec.n, tuple(gates))


def build_xor_circuit(n: int) -> CircuitDescription:
    """CNOT cascade from qubits 1..n-1 into qubit n.

    On a basis-state input, qubit n ends up holding the XOR of all n input
    bits; that qubit is the decode bit.
    """
    n = int_in_range(n, 2, math.inf, "XOR circuit needs at least 2 qubits, got {!r}")
    gates = tuple(Gate("CNOT", (q, n)) for q in range(1, n))
    return CircuitDescription(n, gates)


def xor_decode_classical(bits) -> int:
    """XOR of all bits: 0 decodes to white, 1 to black."""
    bits = tuple(bits)
    if not bits:
        raise ValueError("cannot decode an empty outcome")
    result = 0
    for b in bits:
        result ^= b & 1
    return result
