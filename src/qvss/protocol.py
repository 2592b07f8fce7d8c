"""Dealer/participant protocol: per-pixel encoding, shares, and recovery.

Two interchangeable backends:

* ``statevector`` keeps every pixel's live quantum register inside the
  ``SessionStore`` (standing in for the joint quantum system, since qubits
  cannot be copied).  A pixel is one of only two parity states, so the
  store is a ``RegisterTable``: a few distinct registers plus one table
  index per pixel.  Share files carry no payload (participant j's share is
  qubit j of every register, fixed by the header), and recovery measures
  all pixels of each distinct register in one draw and XOR-decodes the
  outcomes.
* ``sampled`` pre-measures at share time: the session holds one
  ``(pixels, n)`` uint8 bit matrix whose row l-1 is pixel l's outcome, a
  uniformly drawn bitstring of the pixel's parity, and participant j's
  share is column j-1.  Every protocol step is a computational-basis
  measurement, so measuring early changes no observable distribution, and
  large n / large images become cheap.

Sampled randomness is one counter-based stream, ``np.random.Philox`` keyed
by the seed plus a tag in the key's high 64 bits (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): pixel l's n-1 free bits are
the top n-1 bits of raw word l-1, and its last bit sets the parity.  So
sharing is deterministic, and each pixel's bits depend only on the seed,
n, its index and its colour, not on the image around it.

File formats (all integers little-endian):

* Share (.qvs), version 2: magic ``QVSS``, version u8, backend id u8
  (1=statevector, 2=sampled), n u16, participant u16, pixel count u32,
  width u32, height u32, session id (16 bytes); payload: nothing
  (statevector) or the share's bit per pixel, packed MSB first (sampled);
  CRC32 trailer.
* Session (.qvse), version 2: magic ``QVSE``, the same header fields with
  the participant slot zeroed, then the master seed as u64, then
  - statevector: the register table length u32, each table entry as n u16
    followed by 2^n re/im float64 pairs, then one table index per pixel
    as u8, u16 or u32, the narrowest whose range holds the table length;
  - sampled: the bit matrix row by row, packed MSB first;
  then a CRC32 trailer.

Version 1 files (per-pixel registers and handle payloads) are rejected,
and so is any header whose n or image side is over its cap.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chisquare

from .errors import FormatError, IncompleteSharesError, IntegrityError
from .image_io import MAX_DIMENSION, BinaryImage
from .parity import (
    ParitySpec,
    index_parities,
    prepare_parity_state_direct,
    xor_decode_classical,
)
from .statevector import (
    MAX_QUBITS,
    NORM_GUARD,
    StateVector,
    _checked_probabilities,
    marginal_distribution,
)

BACKEND_STATEVECTOR = "statevector"
BACKEND_SAMPLED = "sampled"

#: Sampled shares are classical bits, so the register cap does not bind.
MAX_SAMPLED_QUBITS = 64

#: Analytic uniformity tolerance (statevector audits).
AUDIT_TOLERANCE = 1e-12

#: Chi-square significance floor (sampled audits).
AUDIT_P_THRESHOLD = 0.001

_BACKEND_IDS = {BACKEND_STATEVECTOR: 1, BACKEND_SAMPLED: 2}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_IDS.items()}

_FORMAT_VERSION = 2
_SHARE_MAGIC = b"QVSS"
_SESSION_MAGIC = b"QVSE"

_HEADER = struct.Struct("<4sBBHHIII16s")
_SEED_FIELD = struct.Struct("<Q")
_TABLE_LENGTH = struct.Struct("<I")
_REGISTER_SIZE = struct.Struct("<H")
_CRC = struct.Struct("<I")

#: Session index widths, narrowest first.
_INDEX_DTYPES = tuple(np.dtype(t) for t in ("<u1", "<u2", "<u4"))

_MASK64 = (1 << 64) - 1

#: High 64 bits of the sampled backend's Philox key; the low 64 bits are
#: the seed.  Keeps its words apart from the baseline's ``Philox(key=seed)``.
_SAMPLED_KEY_TAG = 1 << 64


# ``pixel_rng`` and ``_splitmix64`` no longer serve the protocol.  They stay
# only because the benchmark's tracer lists ``pixel_rng`` and two tests call it.
def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def pixel_rng(master_seed: int, pixel_index: int) -> np.random.Generator:
    """Deterministic per-pixel random stream, independent of pixel order."""
    return np.random.Generator(
        np.random.PCG64(master_seed ^ _splitmix64(pixel_index))
    )


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an int in 0..2^64-1, got {seed!r}")
    return seed


def _index_dtype(table_length: int) -> np.dtype:
    return next(d for d in _INDEX_DTYPES if table_length <= np.iinfo(d).max)


class RegisterTable:
    """Every pixel's n-qubit register, as distinct registers plus an index.

    ``states`` holds the distinct registers; pixel i's register is
    ``states[index[i]]``.  An entry is a ``StateVector`` or, once
    measured, an int basis index whose one-hot state is built only when
    read.  Indexing by pixel returns the shared entry, so callers must not
    mutate it in place (statevector operations never do).  Assigning a
    state matches it to an equal entry or appends it, then repoints the
    pixel.
    """

    def __init__(self, n: int, states, index):
        self.n = n
        self.states = list(states)
        # The index is held in the dtype the session file stores; a value
        # that does not fit raises instead of wrapping.
        index = np.asarray(index).reshape(-1)
        self.index = index.astype(_index_dtype(len(self.states)))
        if index.dtype != self.index.dtype and not np.array_equal(index, self.index):
            raise ValueError(
                f"register index does not fit {self.index.dtype.name} for a "
                f"table of {len(self.states)} entries"
            )

    def __len__(self) -> int:
        return len(self.index)

    def state(self, entry: int) -> StateVector:
        """Table entry ``entry`` as a ``StateVector``."""
        value = self.states[entry]
        if isinstance(value, StateVector):
            return value
        amplitudes = np.zeros(1 << self.n, dtype=np.complex128)
        amplitudes[value] = 1.0
        return StateVector(self.n, amplitudes)

    def __getitem__(self, pixel: int) -> StateVector:
        return self.state(int(self.index[pixel]))

    def __iter__(self):
        for entry in self.index.tolist():
            yield self.state(entry)

    def __setitem__(self, pixel: int, state: StateVector) -> None:
        if state.num_qubits != self.n:
            raise ValueError(
                f"register has {state.num_qubits} qubits, table holds {self.n}"
            )
        for entry, value in enumerate(self.states):
            if isinstance(value, StateVector) and np.array_equal(
                value.amplitudes, state.amplitudes
            ):
                break
        else:
            entry = len(self.states)
            self.states.append(state)
            self.index = self.index.astype(_index_dtype(len(self.states)), copy=False)
        self.index[pixel] = entry

    def counts(self) -> np.ndarray:
        """Number of pixels pointing at each table entry."""
        return np.bincount(self.index, minlength=len(self.states))

    def collapse(self, outcomes: np.ndarray) -> None:
        """Replace every pixel's register by its measured basis state.

        The entries are the distinct outcomes in ascending order; outcomes
        lie below 2^n, so they are counted rather than sorted.
        """
        values = np.flatnonzero(np.bincount(outcomes, minlength=1 << self.n))
        lookup = np.empty(1 << self.n, dtype=_index_dtype(len(values)))
        lookup[values] = np.arange(len(values))
        self.index = lookup[outcomes]
        self.states = values.tolist()

    def __eq__(self, other) -> bool:
        """Whether every pixel holds the same register in both tables.

        Each distinct (entry, entry) pair of the two indexes is compared
        once, whatever the pixel count.
        """
        if not isinstance(other, RegisterTable):
            return NotImplemented
        if self.n != other.n or len(self) != len(other):
            return False
        pairs = np.unique(np.stack([self.index, other.index]), axis=1)
        return all(
            np.array_equal(self.state(a).amplitudes, other.state(b).amplitudes)
            for a, b in pairs.T.tolist()
        )


@dataclass
class SessionStore:
    """Dealer-side store of every pixel's quantum register (or its sample).

    ``registers`` is a ``RegisterTable`` in the statevector backend and a
    ``(pixels, n)`` uint8 bit matrix in the sampled backend, whose row
    l-1 is pixel l's outcome and whose column j-1 is participant j's bits.
    """

    n: int
    backend: str
    master_seed: int
    width: int
    height: int
    session_id: bytes
    registers: RegisterTable | np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.backend not in _BACKEND_IDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == BACKEND_STATEVECTOR and not isinstance(
            self.registers, RegisterTable
        ):
            raise ValueError("statevector registers must be a RegisterTable")
        if self.backend == BACKEND_SAMPLED and not (
            isinstance(self.registers, np.ndarray)
            and self.registers.dtype == np.uint8
            and self.registers.shape == (self.pixel_count, self.n)
        ):
            raise ValueError(
                f"sampled registers must be a ({self.pixel_count}, {self.n}) "
                f"uint8 bit matrix"
            )
        if len(self.session_id) != 16:
            raise ValueError("session id must be 16 bytes")
        if len(self.registers) != self.pixel_count:
            raise ValueError(
                f"register table holds {len(self.registers)} entries for "
                f"{self.pixel_count} pixels"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionStore):
            return NotImplemented
        if (
            self.n != other.n
            or self.backend != other.backend
            or self.master_seed != other.master_seed
            or self.width != other.width
            or self.height != other.height
            or self.session_id != other.session_id
        ):
            return False
        if self.backend == BACKEND_SAMPLED:
            return bool(np.array_equal(self.registers, other.registers))
        return self.registers == other.registers

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


@dataclass
class ShareFile:
    """Participant j's per-pixel payload, bound to one session.

    In the sampled backend the payload is a 1-D uint8 array holding one
    bit per pixel in pixel order; ``share_image`` hands out columns of the
    session's bit matrix, not copies.  In the statevector backend it is
    ``()``: participant j holds qubit j of every pixel's register, which
    the header already fixes.
    """

    participant: int
    n: int
    backend: str
    width: int
    height: int
    session_id: bytes
    payload: np.ndarray | tuple

    def __post_init__(self):
        if self.backend not in _BACKEND_IDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not 1 <= self.participant <= self.n:
            raise ValueError(
                f"participant {self.participant} out of range 1..{self.n}"
            )
        if self.backend == BACKEND_STATEVECTOR:
            if len(self.payload):
                raise ValueError(
                    f"statevector share payload must be empty, got "
                    f"{len(self.payload)} entries"
                )
            return
        if not (
            isinstance(self.payload, np.ndarray)
            and self.payload.dtype == np.uint8
            and self.payload.ndim == 1
        ):
            raise ValueError("sampled payload must be a 1-D uint8 array")
        if len(self.payload) != self.pixel_count:
            raise ValueError(
                f"payload holds {len(self.payload)} entries for "
                f"{self.pixel_count} pixels"
            )
        if self.payload.size and self.payload.max() > 1:
            raise ValueError("sampled payload bits must be 0 or 1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShareFile):
            return NotImplemented
        return (
            self.participant == other.participant
            and self.n == other.n
            and self.backend == other.backend
            and self.width == other.width
            and self.height == other.height
            and self.session_id == other.session_id
            and bool(np.array_equal(self.payload, other.payload))
        )

    @property
    def pixel_count(self) -> int:
        return self.width * self.height


@dataclass
class AuditReport:
    """What a cooperating subset of participants can see.

    ``distribution`` aggregates the subset's bit patterns over all pixels
    (exact marginals averaged in the statevector backend, empirical
    frequencies in the sampled backend).  ``max_deviation`` is against the
    uniform distribution; ``p_value`` is the sampled backend's chi-square
    uniformity test.
    """

    subset: tuple[int, ...]
    distribution: np.ndarray
    max_deviation: float
    verdict: str
    p_value: float | None = None


def _derive_session_id(image: BinaryImage, n: int, backend: str, seed: int) -> bytes:
    """SHA-256 of the backend, n, the image size and the seed, cut to 16 bytes.

    The pixels are left out: with a known seed, an id over them would let
    one participant confirm a guessed image.
    """
    digest = hashlib.sha256(b"QVSS:session:v2")
    digest.update(
        struct.pack(
            "<BHIIQ", _BACKEND_IDS[backend], n, image.width, image.height, seed
        )
    )
    return digest.digest()[:16]


def _draw_sampled_outcomes(image: BinaryImage, n: int, seed: int) -> np.ndarray:
    """Every pixel's outcome, uniform over the 2^(n-1) strings of its parity.

    Row l-1 holds pixel l's free bits 1..n-1, the top n-1 bits of raw word
    l-1 of the tagged Philox stream (most significant first), then the bit
    that makes the row's XOR the pixel's colour.
    """
    words = np.random.Philox(key=_SAMPLED_KEY_TAG | seed).random_raw(image.pixel_count)
    head = words.astype(">u8").view(np.uint8).reshape(-1, 8)
    outcomes = np.empty((image.pixel_count, n), dtype=np.uint8)
    outcomes[:, :-1] = np.unpackbits(head, axis=1, count=n - 1)
    outcomes[:, -1] = np.bitwise_xor.reduce(outcomes[:, :-1], axis=1) ^ image.pixels
    return outcomes


def share_image(
    image: BinaryImage, n: int, backend: str, seed: int
) -> tuple[SessionStore, list[ShareFile]]:
    """Encode every pixel and split it into n per-participant shares.

    Deterministic given the seed: rerunning yields byte-identical shares.
    """
    if backend not in _BACKEND_IDS:
        raise ValueError(f"unknown backend {backend!r}")
    cap = MAX_QUBITS if backend == BACKEND_STATEVECTOR else MAX_SAMPLED_QUBITS
    if not isinstance(n, int) or not 2 <= n <= cap:
        raise ValueError(
            f"participant count must be in 2..{cap} for the {backend} backend, "
            f"got {n!r}"
        )
    _check_seed(seed)

    session_id = _derive_session_id(image, n, backend, seed)
    if backend == BACKEND_STATEVECTOR:
        # Entry b is colour b's parity state, so the pixels are the index.
        states = [prepare_parity_state_direct(ParitySpec(n, b)) for b in (0, 1)]
        registers = RegisterTable(n, states, image.pixels)
    else:
        registers = _draw_sampled_outcomes(image, n, seed)

    session = SessionStore(
        n=n,
        backend=backend,
        master_seed=seed,
        width=image.width,
        height=image.height,
        session_id=session_id,
        registers=registers,
    )
    shares = [
        ShareFile(
            participant=j,
            n=n,
            backend=backend,
            width=image.width,
            height=image.height,
            session_id=session_id,
            payload=() if backend == BACKEND_STATEVECTOR else registers[:, j - 1],
        )
        for j in range(1, n + 1)
    ]
    return session, shares


def _check_share_set(shares, session: SessionStore) -> dict[int, ShareFile]:
    participants = [share.participant for share in shares]
    seen = set()
    for j in participants:
        if j in seen:
            raise IntegrityError(f"duplicate share for participant {j}")
        seen.add(j)
    for share in shares:
        if share.session_id != session.session_id:
            raise IntegrityError(
                f"share {share.participant} is bound to a different session"
            )
        if (
            share.n != session.n
            or share.backend != session.backend
            or share.width != session.width
            or share.height != session.height
        ):
            raise IntegrityError(
                f"share {share.participant} header disagrees with the session"
            )
    missing = set(range(1, session.n + 1)) - seen
    if missing:
        raise IncompleteSharesError(
            f"recovery needs all {session.n} shares; missing participants "
            f"{sorted(missing)}"
        )
    return {share.participant: share for share in shares}


def recover_pixel(bits) -> int:
    """Decoded color of one measured outcome: 0 = white, 1 = black."""
    return xor_decode_classical(bits)


def recover_image(
    shares, session: SessionStore, seed: int | None = None
) -> BinaryImage:
    """Measure (or collect) every pixel's shares and XOR-decode the image.

    Requires all n distinct shares bound to the session; anything less
    raises instead of guessing.  In the statevector backend the session's
    registers collapse in place: one generator seeded with ``seed`` draws
    the outcomes of all pixels of each distinct register at once, in table
    order and then pixel order.
    """
    by_participant = _check_share_set(shares, session)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) & _MASK64
    _check_seed(seed)

    if session.backend == BACKEND_STATEVECTOR:
        table = session.registers
        rng = np.random.default_rng(seed)
        # Outcomes lie below 2^n <= 2^16.
        outcomes = np.empty(session.pixel_count, dtype=np.uint16)
        # Pixels grouped by entry, each group in pixel order; numpy radix
        # sorts the u8 or u16 index.
        by_entry = np.argsort(table.index, kind="stable")
        groups = np.split(by_entry, np.cumsum(table.counts())[:-1])
        for entry, pixels in enumerate(groups):
            if not len(pixels):
                continue
            state = table.state(entry)
            probs = _checked_probabilities(state)
            outcomes[pixels] = rng.choice(state.dim, size=len(pixels), p=probs)
        colors = index_parities(1 << table.n)[outcomes].astype(np.uint8)
        table.collapse(outcomes)
    else:
        colors = np.zeros(session.pixel_count, dtype=np.uint8)
        for share in by_participant.values():
            colors ^= share.payload
    return BinaryImage(session.width, session.height, colors)


def audit_subset(session: SessionStore, subset) -> AuditReport:
    """What the given participants can learn from their shares alone.

    Statevector sessions get exact per-pixel marginals; sampled sessions
    get empirical frequencies over pixels plus a chi-square uniformity
    test.  A proper subset of an honest session is uniform, hence the
    "no-information" verdict; the full set decodes and gets
    "full-recovery".  Subsets of more than ``MAX_QUBITS`` participants are
    rejected before the 2^k pattern bins are allocated.
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("audit subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"audit subset contains duplicates: {subset!r}")
    for j in subset:
        if not isinstance(j, int) or not 1 <= j <= session.n:
            raise ValueError(f"participant {j!r} out of range 1..{session.n}")

    k = len(subset)
    if k > MAX_QUBITS:
        raise ValueError(
            f"audit subsets are capped at {MAX_QUBITS} participants "
            f"(2^k pattern bins), got {k}"
        )
    patterns = 1 << k
    uniform = 1.0 / patterns
    is_full = k == session.n
    p_value = None

    if session.backend == BACKEND_STATEVECTOR:
        # Pixels sharing a register share its marginal: one per entry,
        # weighted by how many pixels point at it.
        table = session.registers
        total = np.zeros(patterns)
        max_dev = 0.0
        for entry, count in enumerate(table.counts()):
            if not count:
                continue
            marg = marginal_distribution(table.state(entry), subset).probabilities
            total += count * marg
            max_dev = max(max_dev, float(np.abs(marg - uniform).max()))
        distribution = total / session.pixel_count
    else:
        # Pattern index: participant subset[0]'s bit is the most significant.
        weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
        index = session.registers[:, [j - 1 for j in subset]] @ weights
        counts = np.bincount(index, minlength=patterns)
        distribution = counts / session.pixel_count
        max_dev = float(np.abs(distribution - uniform).max())
        if not is_full:
            p_value = float(chisquare(counts).pvalue)

    if is_full:
        verdict = "full-recovery"
    elif session.backend == BACKEND_STATEVECTOR:
        verdict = "no-information" if max_dev < AUDIT_TOLERANCE else "information-leak"
    else:
        verdict = "no-information" if p_value > AUDIT_P_THRESHOLD else "information-leak"
    return AuditReport(subset, distribution, max_dev, verdict, p_value)


def _crc_wrap(blob: bytes) -> bytes:
    return blob + _CRC.pack(zlib.crc32(blob))


def _crc_unwrap(data: bytes, what: str) -> bytes:
    if len(data) < _HEADER.size + _CRC.size:
        raise FormatError(f"truncated {what}: {len(data)} bytes")
    blob, trailer = data[: -_CRC.size], data[-_CRC.size :]
    if zlib.crc32(blob) != _CRC.unpack(trailer)[0]:
        raise FormatError(f"{what} checksum mismatch")
    return blob


def _unpack_header(blob: bytes, magic: bytes, what: str):
    fields = _HEADER.unpack_from(blob)
    if fields[0] != magic:
        raise FormatError(f"bad magic {fields[0]!r} in {what}, expected {magic!r}")
    if fields[1] != _FORMAT_VERSION:
        raise FormatError(f"unsupported {what} format version {fields[1]}")
    if fields[2] not in _BACKEND_NAMES:
        raise FormatError(f"unknown backend id {fields[2]} in {what}")
    backend = _BACKEND_NAMES[fields[2]]
    cap = MAX_QUBITS if backend == BACKEND_STATEVECTOR else MAX_SAMPLED_QUBITS
    if not 2 <= fields[3] <= cap:
        raise FormatError(f"n {fields[3]} outside 2..{cap} for {backend} in {what}")
    for name, value in (("width", fields[6]), ("height", fields[7])):
        if not 1 <= value <= MAX_DIMENSION:
            raise FormatError(f"{name} {value} outside 1..{MAX_DIMENSION} in {what}")
    if fields[5] != fields[6] * fields[7]:
        raise FormatError(
            f"pixel count {fields[5]} does not match {fields[6]}x{fields[7]} in {what}"
        )
    return fields


def _check_pad_bits(last: int, bits: int, what: str) -> None:
    """Reject ``bits`` packed bits whose last byte, ``last``, sets a pad bit.

    Writers leave pad bits zero, so a set one would not re-serialize.
    """
    pad = -bits % 8
    if pad and last & ((1 << pad) - 1):
        raise FormatError(f"{what} has non-zero pad bits after bit {bits}")


def serialize_share(share: ShareFile) -> bytes:
    head = _HEADER.pack(
        _SHARE_MAGIC,
        _FORMAT_VERSION,
        _BACKEND_IDS[share.backend],
        share.n,
        share.participant,
        share.pixel_count,
        share.width,
        share.height,
        share.session_id,
    )
    if share.backend == BACKEND_STATEVECTOR:
        body = b""
    else:
        body = np.packbits(share.payload).tobytes()
    return _crc_wrap(head + body)


def deserialize_share(data: bytes) -> ShareFile:
    blob = _crc_unwrap(data, "share file")
    _, _, backend_id, n, participant, pixel_count, width, height, session_id = (
        _unpack_header(blob, _SHARE_MAGIC, "share file")
    )
    backend = _BACKEND_NAMES[backend_id]
    body = blob[_HEADER.size :]
    expected = 0 if backend == BACKEND_STATEVECTOR else (pixel_count + 7) // 8
    if len(body) != expected:
        raise FormatError(f"share payload holds {len(body)} bytes, expected {expected}")
    if backend == BACKEND_STATEVECTOR:
        payload = ()
    else:
        _check_pad_bits(body[-1], pixel_count, "share payload")
        payload = np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=pixel_count)
    try:
        return ShareFile(
            participant=participant,
            n=n,
            backend=backend,
            width=width,
            height=height,
            session_id=session_id,
            payload=payload,
        )
    except ValueError as exc:
        raise FormatError(f"invalid share file: {exc}") from None


def serialize_session(session: SessionStore) -> bytes:
    head = _HEADER.pack(
        _SESSION_MAGIC,
        _FORMAT_VERSION,
        _BACKEND_IDS[session.backend],
        session.n,
        0,
        session.pixel_count,
        session.width,
        session.height,
        session.session_id,
    )
    parts = [head, _SEED_FIELD.pack(session.master_seed)]
    if session.backend == BACKEND_STATEVECTOR:
        # Only entries some pixel points at are written.
        table = session.registers
        used, index = np.unique(table.index, return_inverse=True)
        parts.append(_TABLE_LENGTH.pack(len(used)))
        for entry in used.tolist():
            register = table.state(entry)
            buffer = np.empty(2 * register.dim, dtype="<f8")
            buffer[0::2] = register.amplitudes.real
            buffer[1::2] = register.amplitudes.imag
            parts.append(_REGISTER_SIZE.pack(register.num_qubits))
            parts.append(buffer.tobytes())
        parts.append(index.astype(_index_dtype(len(used))).tobytes())
    else:
        parts.append(np.packbits(session.registers).tobytes())
    return _crc_wrap(b"".join(parts))


def _read_register_table(
    blob: bytes, offset: int, n: int, pixel_count: int
) -> RegisterTable:
    """Parse a v2 register table plus index, checking every size first."""
    if len(blob) < offset + _TABLE_LENGTH.size:
        raise FormatError("truncated session file: missing register table length")
    (length,) = _TABLE_LENGTH.unpack_from(blob, offset)
    offset += _TABLE_LENGTH.size
    entry_size = _REGISTER_SIZE.size + (1 << n) * 16
    table_size, remaining = length * entry_size, len(blob) - offset
    if table_size > remaining:
        raise FormatError(
            f"register table length {length} needs {table_size} bytes, "
            f"only {remaining} remain"
        )
    dtype = _index_dtype(length)
    index_size = pixel_count * dtype.itemsize
    if remaining - table_size != index_size:
        raise FormatError(
            f"register index holds {remaining - table_size} bytes, expected "
            f"{index_size} ({pixel_count} x {dtype.name})"
        )

    states = []
    for entry in range(length):
        (reg_n,) = _REGISTER_SIZE.unpack_from(blob, offset)
        if reg_n != n:
            raise FormatError(
                f"register table entry {entry} declares {reg_n} qubits, "
                f"session declares {n}"
            )
        raw = np.frombuffer(
            blob, dtype="<f8", count=2 << n, offset=offset + _REGISTER_SIZE.size
        )
        # Bounding every component first keeps the squares finite, and
        # also rejects NaN, which the norm comparison below would pass.
        peak = float(np.abs(raw).max())
        if not peak <= 1.0 + NORM_GUARD:
            raise FormatError(
                f"register table entry {entry} norm cannot be 1: an amplitude "
                f"component has magnitude {peak:.3e}"
            )
        amps = raw[0::2] + 1j * raw[1::2]
        norm = float((np.abs(amps) ** 2).sum())
        if abs(norm - 1.0) > NORM_GUARD:
            raise FormatError(
                f"register table entry {entry} norm deviates from 1 by "
                f"{abs(norm - 1.0):.3e}"
            )
        states.append(StateVector(n, amps))
        offset += entry_size

    index = np.frombuffer(blob, dtype=dtype, count=pixel_count, offset=offset)
    if pixel_count and int(index.max()) >= length:
        raise FormatError(
            f"register index value {int(index.max())} out of range for a "
            f"table of {length} entries"
        )
    return RegisterTable(n, states, index)


def deserialize_session(data: bytes) -> SessionStore:
    blob = _crc_unwrap(data, "session file")
    _, _, backend_id, n, _, pixel_count, width, height, session_id = _unpack_header(
        blob, _SESSION_MAGIC, "session file"
    )
    backend = _BACKEND_NAMES[backend_id]
    offset = _HEADER.size
    if len(blob) < offset + _SEED_FIELD.size:
        raise FormatError("truncated session file: missing master seed")
    (master_seed,) = _SEED_FIELD.unpack_from(blob, offset)
    offset += _SEED_FIELD.size

    if backend == BACKEND_STATEVECTOR:
        registers = _read_register_table(blob, offset, n, pixel_count)
        offset = len(blob)
    else:
        total_bits = pixel_count * n
        nbytes = (total_bits + 7) // 8
        if len(blob) - offset != nbytes:
            raise FormatError(
                f"session outcome payload holds {len(blob) - offset} bytes, "
                f"expected {nbytes}"
            )
        _check_pad_bits(blob[-1], total_bits, "session outcome payload")
        bits = np.frombuffer(blob, dtype=np.uint8, offset=offset)
        registers = np.unpackbits(bits, count=total_bits).reshape(pixel_count, n)
        offset = len(blob)
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after registers")
    try:
        return SessionStore(
            n=n,
            backend=backend,
            master_seed=master_seed,
            width=width,
            height=height,
            session_id=session_id,
            registers=registers,
        )
    except ValueError as exc:
        raise FormatError(f"invalid session file: {exc}") from None
