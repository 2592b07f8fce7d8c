"""Dense statevector simulation of small qubit registers.

Conventions used throughout the package:

* Qubit indices are 1-based and big-endian: qubit 1 is the leftmost bit of
  a printed bitstring and the most significant bit of a basis index, so the
  bitstring ``x1 x2 ... xn`` maps to the integer ``x1*2^(n-1) + ... + xn``.
* A measured outcome is a plain tuple of 0/1 ints; entry ``j-1`` holds
  qubit j's bit (participant j's result).
* All operations are functional: they return a new ``StateVector`` and
  never mutate their input, so distinct registers are safe to process from
  concurrent workers.

Gates act by pairwise amplitude updates (or index gathers for the
controlled gates) rather than by building 2^n x 2^n matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateCorruptionError, int_in_range

#: Hard per-register size cap; pixels in one parity class share a register,
#: so memory stays trivial well below this.
MAX_QUBITS = 16

#: Tolerance for analytic normalization checks.
NORM_TOL = 1e-12

#: Looser runtime guard applied before sampling from a state.
NORM_GUARD = 1e-9

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class StateVector:
    """An n-qubit register as 2^n complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> StateVector:
        return StateVector(self.num_qubits, self.amplitudes.copy())

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass
class MarginalDistribution:
    """Exact probabilities of the bit patterns on an ordered qubit subset."""

    subset: tuple[int, ...]
    probabilities: np.ndarray


def basis_state(n: int, index: int) -> StateVector:
    """Return the basis state |index> on n qubits.  n must lie in 1..MAX_QUBITS."""
    n = int_in_range(n, 1, MAX_QUBITS, f"register size must be in 1..{MAX_QUBITS}, got {{!r}}")
    index = int_in_range(index, 0, (1 << n) - 1, f"basis index {{!r}} out of range for {n} qubits")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n, amps)


def new_zero_state(n: int) -> StateVector:
    """Return |0...0> on n qubits.  n must lie in 1..MAX_QUBITS."""
    return basis_state(n, 0)


def _check_qubit(state: StateVector, q: int) -> int:
    message = f"qubit index {{!r}} out of range for {state.num_qubits}-qubit register"
    try:
        return int_in_range(q, 1, state.num_qubits, message)
    except ValueError as exc:
        raise IndexError(*exc.args) from None


def _bit_mask(state: StateVector, q: int) -> int:
    # Qubit 1 is the most significant bit.
    return 1 << (state.num_qubits - q)


def _apply_single(
    state: StateVector, q: int, m00: complex, m01: complex, m10: complex, m11: complex
) -> StateVector:
    q = _check_qubit(state, q)
    n = state.num_qubits
    a = state.amplitudes.reshape(1 << (q - 1), 2, 1 << (n - q))
    a0 = a[:, 0, :]
    a1 = a[:, 1, :]
    out = np.empty_like(a)
    out[:, 0, :] = m00 * a0 + m01 * a1
    out[:, 1, :] = m10 * a0 + m11 * a1
    return StateVector(n, out.reshape(-1))


def apply_h(state: StateVector, q: int) -> StateVector:
    """Apply the Hadamard matrix [[1,1],[1,-1]]/sqrt(2) to qubit q."""
    return _apply_single(state, q, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF)


def apply_x(state: StateVector, q: int) -> StateVector:
    """Apply the bit-flip matrix [[0,1],[1,0]] to qubit q."""
    return _apply_single(state, q, 0.0, 1.0, 1.0, 0.0)


def apply_z(state: StateVector, q: int) -> StateVector:
    """Apply the phase-flip matrix [[1,0],[0,-1]] to qubit q."""
    return _apply_single(state, q, 1.0, 0.0, 0.0, -1.0)


def _controlled_flip(state: StateVector, *qubits: int) -> StateVector:
    """Flip the last qubit's bit on every basis state whose other (control)
    qubits' bits are all 1."""
    # An out-of-range qubit raises IndexError before the check for repeats.
    *controls, target = check_subset(state.num_qubits, [_check_qubit(state, q) for q in qubits])
    cmask = sum(_bit_mask(state, q) for q in controls)
    idx = np.arange(state.dim)
    src = np.where((idx & cmask) == cmask, idx ^ _bit_mask(state, target), idx)
    return StateVector(state.num_qubits, state.amplitudes[src])


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit on every basis state whose control bit is 1."""
    return _controlled_flip(state, control, target)


def apply_toffoli(state: StateVector, c1: int, c2: int, target: int) -> StateVector:
    """Flip the target bit iff both control bits are 1."""
    return _controlled_flip(state, c1, c2, target)


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Big-endian bit tuple of a basis index: entry 0 is qubit 1."""
    return tuple((index >> (n - j)) & 1 for j in range(1, n + 1))


def bits_to_index(bits) -> int:
    """Inverse of :func:`index_to_bits`."""
    index = 0
    for b in bits:
        index = (index << 1) | (b & 1)
    return index


def _checked_probabilities(state: StateVector) -> np.ndarray:
    probs = np.abs(state.amplitudes) ** 2
    total = float(probs.sum())
    if not abs(total - 1.0) <= NORM_GUARD:  # a NaN total fails too
        raise StateCorruptionError(
            f"register norm deviates from 1 by {abs(total - 1.0):.3e}"
        )
    return probs / total


#: Forward steps from a guide-table start before the draws still short of
#: their outcome are binary-searched.
_GUIDE_STEPS = 4


def sample(state: StateVector, rng: np.random.Generator, size: int | None = None):
    """Basis index drawn with probability |amplitude|^2, or ``size`` of them.

    The outcomes, and the generator state left behind, are those of
    ``rng.choice(state.dim, size=size, p=...)``: the same ``cdf`` and the
    same ``u = rng.random(size)``, and each outcome is
    ``cdf.searchsorted(u, side="right")``.  The search starts from a
    guide table (Chen and Asau, 1974; Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. III): ``guide[j]`` is the outcome of
    ``u = j / G``, a lower bound for every ``u`` in ``[j/G, (j+1)/G)``.
    Each draw steps forward from ``guide[floor(u * G)]`` while
    ``cdf[idx] <= u``, a few vectorised passes, and the draws still short
    are binary-searched.  G is the power of two nearest to the smaller of
    the draw count and 2^n, so it never exceeds 2^n and a single draw
    (or none) builds a one-entry table.
    """
    cdf = _checked_probabilities(state).cumsum()
    cdf /= cdf[-1]
    u = np.atleast_1d(rng.random(size))
    buckets = 1 << round(math.log2(min(len(u), state.dim) or 1))
    guide = cdf.searchsorted(np.arange(buckets) / buckets, side="right")
    idx = np.empty(len(u), dtype=np.intp)
    np.multiply(u, buckets, out=idx, casting="unsafe")  # floor(u * G)
    idx = guide[idx]
    short = np.flatnonzero(cdf[idx] <= u)
    for _ in range(_GUIDE_STEPS):
        if not len(short):
            break
        idx[short] += 1
        short = short[cdf[idx[short]] <= u[short]]
    if len(short):
        idx[short] = cdf.searchsorted(u[short], side="right")
    if size is None:
        return int(idx[0])
    return idx.astype(np.int64, copy=False)


def measure_all(
    state: StateVector, rng: np.random.Generator
) -> tuple[tuple[int, ...], StateVector]:
    """Draw one computational-basis outcome and collapse the register.

    The outcome index is sampled with probability |amplitude|^2; the
    returned state is the matching basis state.
    """
    index = int(sample(state, rng))
    n = state.num_qubits
    return index_to_bits(index, n), basis_state(n, index)


def measure_shots(
    state: StateVector, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample `shots` independent outcomes; returns counts per basis index.

    Models repeated preparation and measurement of the same state, so the
    register is not collapsed.
    """
    shots = int_in_range(shots, 1, math.inf, "shot count must be an int >= 1, got {!r}")
    return np.bincount(sample(state, rng, shots), minlength=state.dim)


def probability_of(state: StateVector, bits) -> float:
    """Probability of measuring the given bit tuple."""
    bits = tuple(bits)
    if len(bits) != state.num_qubits:
        raise ValueError(
            f"expected {state.num_qubits} bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    return float(abs(state.amplitudes[bits_to_index(bits)]) ** 2)


def check_subset(n: int, subset) -> tuple[int, ...]:
    """A non-empty subset of distinct qubits of an n-qubit register (the
    participants of an n-party session), as a tuple of Python ints."""
    subset = tuple(int_in_range(q, 1, n, f"qubit {{!r}} out of range 1..{n}") for q in subset)
    if not subset:
        raise ValueError("qubit subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"qubit subset contains duplicates: {subset!r}")
    return subset


def marginal_distribution(state: StateVector, subset) -> MarginalDistribution:
    """Exact distribution over the subset's bit patterns.

    Sums squared amplitude moduli over all traced-out qubits.  Pattern
    indices follow the subset's own order: the first listed qubit is the
    most significant pattern bit.
    """
    subset = check_subset(state.num_qubits, subset)
    n = state.num_qubits
    idx = np.arange(state.dim)
    pattern = np.zeros(state.dim, dtype=np.int64)
    for q in subset:
        pattern = (pattern << 1) | ((idx >> (n - q)) & 1)
    probs = np.abs(state.amplitudes) ** 2
    marg = np.bincount(pattern, weights=probs, minlength=1 << len(subset))
    return MarginalDistribution(subset, marg)
