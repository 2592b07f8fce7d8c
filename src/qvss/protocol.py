"""Dealer/participant protocol: per-pixel encoding, shares, and recovery.

Two interchangeable backends:

* ``statevector`` keeps every pixel's live quantum register inside the
  ``SessionStore`` (standing in for the joint quantum system, since qubits
  cannot be copied).  A pixel is one of only two parity states, so the
  store is a ``RegisterTable``: a few distinct registers plus one table
  index per pixel.  Share files carry no payload (participant j's share is
  qubit j of every register, fixed by the header).  ``measure`` returns
  the outcomes as bit planes, leaving the session as it was.
* ``sampled`` pre-measures at share time, drawing each pixel's outcome
  uniformly among the bitstrings of its parity.  Participant j's share is
  bit j of every outcome, a bit plane packed MSB first with zero pad bits,
  and the session holds the n planes as one ``(n, ceil(pixels/8))`` uint8
  array.  Every protocol step is a computational-basis measurement, so
  measuring early changes no observable distribution, and large n / large
  images become cheap.  ``recover_image`` XORs the planes of either backend.

Randomness is one counter-based stream, ``np.random.Philox`` keyed by the
seed plus a tag in the key's high 64 bits (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): pixel l's bits 1..n-1 are the top
n-1 bits of raw word l-1, most significant first, and bit n is the one
that sets the pixel's parity.  So sharing is deterministic, and each
pixel's bits depend only on the seed, n, its index and its colour, not on
the image around it.  Measuring a statevector session of the two parity
states ``share_image`` makes is the same draw: at seed s its planes are,
bit for bit, the sampled share of its image at seed s.  A table with any
other used entry is drawn per entry from ``np.random.default_rng(s)``.

File formats (all integers little-endian):

* Share (.qvs), version 7: magic ``QVSS``, version u8, backend id u8
  (1=statevector, 2=sampled), n u16, participant u16, width u32, height
  u32, session id (16 bytes); payload: nothing (statevector) or the
  share's bit plane (sampled); CRC32 trailer.
* Session (.qvse), version 7: magic ``QVSE``, the same header fields with
  the participant slot zero, then the master seed as u64, then
  - statevector: the register table as it is held, unused entries
    included (``share_image`` makes one per colour present): its length
    u32, then each entry as its amplitude form u8, its support (a 2^n-bit
    map of the non-zero amplitudes, packed MSB first with zero pad bits)
    and little-endian complex128 amplitudes (the same bytes as re/im
    float64 pairs): form 1 stores one amplitude that every support bit
    shares (a parity state, a basis state), form 0 one per set bit in
    index order, used only when the amplitudes' bytes are not all equal;
    then each pixel's table index as b = bit_length(length - 1) bit
    planes, most significant first (none for one entry, one for a fresh
    two-colour session); writers and readers cap the table's dense states
    at ``MAX_SESSION_TABLE_BYTES`` (256 MiB);
  - sampled: the n bit planes in participant order, share j's body being
    bytes ``[(j-1)*P, j*P)`` of them;
  then a CRC32 trailer.  A bit plane is one bit per pixel, packed MSB
  first with zero pad bits: P = ceil(width*height/8) bytes.

Files of any other version are rejected.  One check, ``_check_header``,
bounds the backend, n, the image sides and the session id, both in a
file's header and in a share or session built in memory, so anything that
can be written can be read back.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chisquare

from .errors import FormatError, IncompleteSharesError, IntegrityError, int_in_range
from .image_io import BinaryImage, check_sides
from .parity import ParitySpec, index_parities, prepare_parity_state_direct
from .statevector import (
    MAX_QUBITS,
    NORM_GUARD,
    StateVector,
    check_subset,
    marginal_distribution,
    sample,
)

BACKEND_STATEVECTOR = "statevector"
BACKEND_SAMPLED = "sampled"

#: Sampled shares are classical bits, so the register cap does not bind.
MAX_SAMPLED_QUBITS = 64

#: Cap on the dense states of a session file's statevector register table,
#: checked before any of them is built, by the writer and by the reader.  A
#: fresh session at n=16 needs about 2 MiB.
MAX_SESSION_TABLE_BYTES = 1 << 28

#: Analytic uniformity tolerance (statevector audits).
AUDIT_TOLERANCE = 1e-12

#: Chi-square significance floor (sampled audits).
AUDIT_P_THRESHOLD = 0.001

_BACKEND_IDS = {BACKEND_STATEVECTOR: 1, BACKEND_SAMPLED: 2}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_IDS.items()}

_FORMAT_VERSION = 7
_SHARE_MAGIC = b"QVSS"
_SESSION_MAGIC = b"QVSE"

_HEADER = struct.Struct("<4sBBHHII16s")
_SEED_FIELD = struct.Struct("<Q")
_TABLE_LENGTH = struct.Struct("<I")
_ENTRY_FORM = struct.Struct("<B")
_CRC = struct.Struct("<I")

#: A table entry's amplitude forms: one amplitude per support bit, or one
#: that every support bit shares.
_FORM_PER_BIT, _FORM_SHARED = 0, 1

#: Pixels per step of a pass over a per-pixel array, so that no temporary
#: the size of the image is made (``np.bincount`` casts to intp, 8 B a pixel).
_CHUNK = 1 << 20

_MASK64 = (1 << 64) - 1

#: High 64 bits of the Philox key of ``_draw_planes``; the low 64 bits are
#: the seed.  Keeps its words apart from the baseline's tie streams, keyed
#: under ``baseline._TIE_KEY_TAG``; the baseline's share stream is
#: ``PCG64DXSM(seed)``, another generator.
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


#: The fields that bind a share to its session, in ``_check_header`` order.
_HEADER_FIELDS = ("n", "backend", "width", "height", "session_id")
_header = operator.attrgetter(*_HEADER_FIELDS)


def _check_header(n, backend, width, height, session_id) -> tuple:
    """The header fields, integers as Python ints, if every reader accepts
    them, else ``ValueError``: the one check for builders and the reader."""
    if backend not in _BACKEND_IDS:
        raise ValueError(f"unknown backend {backend!r}")
    cap = MAX_QUBITS if backend == BACKEND_STATEVECTOR else MAX_SAMPLED_QUBITS
    n = int_in_range(n, 2, cap, f"n {{!r}} outside 2..{cap} for {backend}")
    width, height = check_sides(width, height)
    if not (isinstance(session_id, bytes) and len(session_id) == 16):
        raise ValueError(f"session id must be 16 bytes, got {session_id!r}")
    return n, backend, width, height, session_id


def _check_seed(seed: int) -> int:
    return int_in_range(seed, 0, _MASK64, "seed must be an int in 0..2^64-1, got {!r}")


def entropy_seed() -> int:
    """A 64-bit seed drawn from the operating system's entropy."""
    return int(np.random.SeedSequence().entropy) & _MASK64


def _chunks(length: int):
    """Slices of ``_CHUNK`` items that cover ``range(length)`` in order."""
    return (slice(start, start + _CHUNK) for start in range(0, length, _CHUNK))


def _bit_planes(data, bits: int, what: str, rows: int | None = None) -> np.ndarray:
    """``bits`` bits packed MSB first, checked: a uint8 array of shape
    ``(ceil(bits/8),)``, or ``(rows, ceil(bits/8))`` for ``rows`` planes, with
    the zero pad bits writers leave.  A ``memoryview`` (a file body) is
    viewed in that shape.  Raises ``ValueError``."""
    shape = ((bits + 7) // 8,) if rows is None else (rows, (bits + 7) // 8)
    if isinstance(data, memoryview):
        data = np.frombuffer(data, dtype=np.uint8)
        if data.size != math.prod(shape):
            raise ValueError(f"{what} holds {data.size} bytes, expected {math.prod(shape)}")
        data = data.reshape(shape)
    if not (isinstance(data, np.ndarray) and data.dtype == np.uint8 and data.shape == shape):
        raise ValueError(f"{what} must be a {len(shape)}-D uint8 array of shape {shape}")
    pad = -bits % 8
    if pad and (data[..., -1] & ((1 << pad) - 1)).any():
        raise ValueError(f"{what} has non-zero pad bits after bit {bits}")
    return data


def _fold(planes, count: int) -> np.ndarray:
    """Each pixel's bits in ``planes`` (rows of ``count`` bits packed MSB
    first) as one integer, the first plane's bit the highest, in the
    narrowest unsigned dtype that holds ``2^len(planes) - 1``.  A uint8
    result starts as the first plane unpacked whole, not a copy, any other
    at zero; planes are shifted in one ``_CHUNK`` of pixels at a time."""
    dtype = np.min_scalar_type((1 << len(planes)) - 1)
    whole = len(planes) > 0 and dtype == np.uint8
    folded = np.unpackbits(planes[0], count=count) if whole else np.zeros(count, dtype)
    for part in _chunks(count):
        span, chunk = slice(part.start // 8, part.stop // 8), folded[part]
        for plane in planes[1 if whole else 0 :]:
            chunk <<= 1
            chunk |= np.unpackbits(plane[span], count=len(chunk))
    return folded


def _bincount(values: np.ndarray, minlength: int) -> np.ndarray:
    """``np.bincount`` of values below ``minlength``, one chunk at a time."""
    counts = np.zeros(minlength, dtype=np.intp)
    for part in _chunks(len(values)):
        counts += np.bincount(values[part], minlength=minlength)
    return counts


class RegisterTable:
    """Every pixel's n-qubit register, as distinct registers plus an index.

    ``states`` holds the distinct registers, each an n-qubit
    ``StateVector``; pixel i's register is ``states[index[i]]``.  Equality
    and the session file see every entry in one sparse form, ``_sparse``:
    its support and its non-zero amplitudes.  Nothing changes a table
    after construction: measuring it (``measure``, ``recover_image``)
    returns the outcomes and leaves the table as it was.
    """

    def __init__(self, n: int, states, index):
        self.n = n
        self.states = list(states)
        for entry, value in enumerate(self.states):
            if not isinstance(value, StateVector):
                raise ValueError(
                    f"register table entry {entry} must be a StateVector, "
                    f"got {type(value).__name__}"
                )
            if value.num_qubits != n:
                raise ValueError(f"register has {value.num_qubits} qubits, table holds {n}")
        # The index is held in the narrowest unsigned dtype whose range
        # holds the last entry number; a value that does not fit raises
        # instead of wrapping.  An array of that dtype is kept, not copied.
        last = max(len(self.states) - 1, 0)
        index = np.asarray(index).reshape(-1)
        self.index = index.astype(np.min_scalar_type(last), copy=False)
        if index.dtype != self.index.dtype and not np.array_equal(index, self.index):
            raise ValueError(
                f"register index does not fit {self.index.dtype.name} for a "
                f"table of {len(self.states)} entries"
            )
        if len(self.index) and int(self.index.max()) >= len(self.states):
            raise ValueError(
                f"register index value {int(self.index.max())} out of range for "
                f"a table of {len(self.states)} entries"
            )

    def __len__(self) -> int:
        return len(self.index)

    def _sparse(self, entry: int) -> tuple[np.ndarray, np.ndarray]:
        """Table entry ``entry`` as the ascending basis indices of its
        non-zero amplitudes, and those amplitudes."""
        amplitudes = self.states[entry].amplitudes
        support = np.flatnonzero(amplitudes)
        return support, amplitudes[support]

    def __iter__(self):
        for entry in self.index.tolist():
            yield self.states[entry]

    def counts(self) -> np.ndarray:
        """Number of pixels pointing at each table entry."""
        return _bincount(self.index, len(self.states))

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
            all(map(np.array_equal, self._sparse(a), other._sparse(b)))
            for a, b in pairs.T.tolist()
        )


@dataclass
class SessionStore:
    """Dealer-side store of every pixel's quantum register (or its sample).

    ``registers`` is a ``RegisterTable`` in the statevector backend.  In
    the sampled backend it is the n bit planes, one
    ``(n, ceil(pixels/8))`` uint8 array: bit l-1 of plane j-1, packed MSB
    first, is participant j's bit of pixel l, and the pad bits are zero.
    The session file stores it as it is.  ``share_image`` makes the planes
    read-only, since its shares' payloads are views of them.
    """

    n: int
    backend: str
    master_seed: int
    width: int
    height: int
    session_id: bytes
    registers: RegisterTable | np.ndarray = field(repr=False)

    def __post_init__(self):
        self.n, self.backend, self.width, self.height, self.session_id = (
            _check_header(*_header(self))
        )
        self.master_seed = _check_seed(self.master_seed)
        if self.backend == BACKEND_SAMPLED:
            _bit_planes(self.registers, self.pixel_count, "sampled registers", self.n)
        elif not isinstance(self.registers, RegisterTable):
            raise ValueError("statevector registers must be a RegisterTable")
        elif self.registers.n != self.n:
            raise ValueError(f"register table n {self.registers.n} is not session n {self.n}")
        elif len(self.registers) != self.pixel_count:
            raise ValueError(
                f"register table holds {len(self.registers)} entries for "
                f"{self.pixel_count} pixels"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionStore):
            return NotImplemented
        if _header(self) != _header(other) or self.master_seed != other.master_seed:
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

    In the sampled backend the payload is the participant's bit plane (see
    ``SessionStore``), byte for byte the share file's body; ``share_image``
    hands out read-only views of the session's planes, not copies, so an
    edit in place raises and an edited copy fails ``recover_image``'s plane
    check.  In the statevector backend it is ``()``: participant j holds
    qubit j of every pixel's register, which the header already fixes.
    """

    participant: int
    n: int
    backend: str
    width: int
    height: int
    session_id: bytes
    payload: np.ndarray | tuple

    def __post_init__(self):
        self.n, self.backend, self.width, self.height, self.session_id = (
            _check_header(*_header(self))
        )
        self.participant = int_in_range(
            self.participant, 1, self.n, f"participant {{!r}} out of range 1..{self.n}"
        )
        if self.backend == BACKEND_SAMPLED:
            _bit_planes(self.payload, self.pixel_count, "share payload")
        elif len(self.payload):
            raise ValueError(
                f"statevector share payload must be empty, got {len(self.payload)} entries"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShareFile):
            return NotImplemented
        return (
            self.participant == other.participant
            and _header(self) == _header(other)
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


def _pack_top_bits(words: np.ndarray, planes: np.ndarray, start: int) -> None:
    """Bits 63, 62, ... of each word of ``words`` (as uint64) packed MSB
    first into ``planes[0]``, ``planes[1]``, ... from pixel ``start``, a
    multiple of 8; each byte column is made contiguous once."""
    # Each little-endian word's bytes, reversed: most significant first.
    rows = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, ::-1]
    out = slice(start // 8, start // 8 + (len(rows) + 7) // 8)
    for bit, plane in enumerate(planes):
        if bit % 8 == 0:
            column = np.ascontiguousarray(rows[:, bit // 8])
        plane[out] = np.packbits(column & (0x80 >> bit % 8))


def _draw_planes(colours: np.ndarray, count: int, n: int, seed: int) -> np.ndarray:
    """The outcomes of ``count`` pixels, each uniform over the 2^(n-1)
    strings whose XOR is its colour (``colours``: one bit a pixel, packed
    MSB first), as n bit planes: a sampled session's registers, and
    ``measure``'s planes of parity states.

    Bit j of pixel l (j < n) is bit j of raw word l-1 of the tagged Philox
    stream, most significant first; bit n is the XOR of the others and the
    pixel's colour.  Words come ``_CHUNK`` (a multiple of 8) at a time, so
    each chunk packs into whole bytes of every plane.
    """
    planes = np.empty((n, len(colours)), dtype=np.uint8)
    philox = np.random.Philox(key=_SAMPLED_KEY_TAG | seed)
    for part in _chunks(count):
        _pack_top_bits(philox.random_raw(len(range(count)[part])), planes[:-1], part.start)
    planes[-1] = np.bitwise_xor.reduce(planes[:-1], axis=0) ^ colours
    return planes


def share_image(
    image: BinaryImage, n: int, backend: str, seed: int
) -> tuple[SessionStore, list[ShareFile]]:
    """Encode every pixel and split it into n per-participant shares.

    Deterministic given the seed: rerunning yields byte-identical shares.
    """
    # The id is derived from the checked fields, so a placeholder stands in.
    n = _check_header(n, backend, image.width, image.height, bytes(16))[0]
    seed = _check_seed(seed)
    session_id = _derive_session_id(image, n, backend, seed)
    header = dict(
        n=n, backend=backend, width=image.width, height=image.height, session_id=session_id
    )
    if backend == BACKEND_STATEVECTOR:
        # One parity state per colour present, lowest first, so a pixel's
        # entry is its colour less the lowest: a new array, so that the
        # session does not follow later in-place edits of the caller's image.
        low, high = int(image.pixels.min()), int(image.pixels.max())
        states = [prepare_parity_state_direct(ParitySpec(n, b)) for b in range(low, high + 1)]
        registers = RegisterTable(n, states, image.pixels - low)
    else:
        # The shares' payloads are views of these planes: read-only, so an
        # edit to a share cannot also edit the session it is checked against.
        registers = _draw_planes(np.packbits(image.pixels), image.pixel_count, n, seed)
        registers.flags.writeable = False

    session = SessionStore(master_seed=seed, registers=registers, **header)
    shares = [
        ShareFile(
            participant=j,
            payload=() if backend == BACKEND_STATEVECTOR else registers[j - 1],
            **header,
        )
        for j in range(1, n + 1)
    ]
    return session, shares


def _check_share_set(shares, session: SessionStore) -> None:
    seen = set()
    for share in shares:
        j = share.participant
        if j in seen:
            raise IntegrityError(f"duplicate share for participant {j}")
        seen.add(j)
        for name, mine, theirs in zip(_HEADER_FIELDS, _header(share), _header(session)):
            if mine != theirs:
                raise IntegrityError(f"share {j} has {name} {mine!r}, the session {theirs!r}")
    missing = set(range(1, session.n + 1)) - seen
    if missing:
        raise IncompleteSharesError(
            f"recovery needs all {session.n} shares; missing participants "
            f"{sorted(missing)}"
        )


def _draw_outcomes(table: RegisterTable, seed: int) -> np.ndarray:
    """Each pixel's basis index: one ``np.random.default_rng(seed)`` draws
    each entry's pixels, table order then pixel order (numpy radix sorts
    the u8 or u16 index that groups them), one ``_CHUNK`` at a time, as
    ``rng.random(a)`` then ``rng.random(b)`` give ``rng.random(a + b)``."""
    rng = np.random.default_rng(seed)
    outcomes = np.empty(len(table), dtype=np.min_scalar_type((1 << table.n) - 1))
    by_entry = np.argsort(table.index, kind="stable")
    groups = np.split(by_entry, np.cumsum(table.counts())[:-1])
    for state, pixels in zip(table.states, groups):
        for part in _chunks(len(pixels)):
            outcomes[pixels[part]] = sample(state, rng, len(pixels[part]))
    return outcomes


def measure(session: SessionStore, seed: int) -> np.ndarray:
    """A statevector session's registers measured with ``seed``, in the
    sampled session's layout: ``(n, ceil(pixels/8))`` uint8 planes, plane
    j-1 holding qubit j (the top bit of the basis index first).

    When every entry some pixel points at equals one of ``share_image``'s
    two parity states, the planes are ``_draw_planes`` of the entries'
    colours: bit for bit the sampled share of that image at ``seed``.  Any
    other table is drawn per entry (``_draw_outcomes``).  The session is
    left as it was; a sampled one raises ``ValueError``, since its
    registers are its planes.
    """
    if session.backend != BACKEND_STATEVECTOR:
        raise ValueError(f"a {session.backend} session was measured when it was shared")
    seed, table, n = _check_seed(seed), session.registers, session.n
    parity = [prepare_parity_state_direct(ParitySpec(n, b)).amplitudes for b in (0, 1)]
    colours = [  # each entry's colour, or 2 if it is neither parity state
        next((b for b in (0, 1) if np.array_equal(entry.amplitudes, parity[b])), 2)
        for entry in table.states
    ]
    if 2 not in colours or not table.counts()[np.equal(colours, 2)].any():
        lut, packed = np.array(colours, np.uint8), np.empty((len(table) + 7) // 8, np.uint8)
        for part in _chunks(len(table)):  # ``take`` casts the index to intp
            packed[part.start // 8 : part.stop // 8] = np.packbits(lut.take(table.index[part]))
        return _draw_planes(packed, len(table), n, seed)
    outcomes = _draw_outcomes(table, seed)
    planes = np.empty((n, (len(table) + 7) // 8), dtype=np.uint8)
    for part in _chunks(len(table)):
        _pack_top_bits(outcomes[part].astype(np.uint64) << (64 - n), planes, part.start)
    return planes


def recover_image(shares, session: SessionStore, seed: int | None = None) -> BinaryImage:
    """Every pixel's colour as the XOR of its n measured bits.

    Requires all n distinct shares bound to the session; anything less
    raises instead of guessing, as does a sampled share whose plane is not
    the session's.  The planes are a sampled session's own, or a
    statevector session's ``measure`` with ``seed`` (drawn from entropy if
    None); the session is left as it was, so one seed gives one image on
    every call.  A sampled session draws nothing, but a seed given for it
    is still checked.
    """
    shares = list(shares)  # read twice: checked, then compared
    _check_share_set(shares, session)
    if seed is not None:
        seed = _check_seed(seed)
    if session.backend == BACKEND_STATEVECTOR:
        planes = measure(session, entropy_seed() if seed is None else seed)
    else:
        planes = session.registers
        for share in shares:
            j = share.participant
            differs = np.flatnonzero(share.payload != planes[j - 1])
            if len(differs):
                raise IntegrityError(
                    f"share {j} differs from the session's plane {j} at payload byte {differs[0]}"
                )
    colors = np.unpackbits(np.bitwise_xor.reduce(planes, axis=0), count=session.pixel_count)
    return BinaryImage(session.width, session.height, colors)


def audit_subset(session: SessionStore, subset) -> AuditReport:
    """What the given participants can learn from their shares alone.

    Statevector sessions get exact per-pixel marginals; sampled sessions
    get empirical frequencies over pixels plus a chi-square uniformity
    test.  A proper subset of an honest session is uniform, hence the
    "no-information" verdict.  The full set gets "full-recovery" when every
    pixel decodes to one colour: always for sampled sessions, and for
    statevector sessions when the support of every entry some pixel points
    at lies in one parity class; else "unreliable-recovery".  Subsets of
    more than ``MAX_QUBITS`` participants are rejected before the 2^k
    pattern bins are allocated.
    """
    subset = check_subset(session.n, subset)
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
    reliable = True  # every pixel's outcomes share one parity

    if session.backend == BACKEND_STATEVECTOR:
        # Pixels sharing a register share its marginal: one per entry,
        # weighted by how many pixels point at it.
        table = session.registers
        parities = index_parities(1 << table.n) if is_full else None
        total = np.zeros(patterns)
        max_dev = 0.0
        for entry, count in enumerate(table.counts()):
            if not count:
                continue
            marg = marginal_distribution(table.states[entry], subset).probabilities
            total += count * marg
            max_dev = max(max_dev, float(np.abs(marg - uniform).max()))
            if is_full:
                classes = parities[table._sparse(entry)[0]]
                reliable = reliable and classes.min() == classes.max()
        distribution = total / session.pixel_count
    else:
        # Pattern index: participant subset[0]'s bit is the most significant;
        # k <= 16, and the patterns are counted one chunk at a time.
        rows, counts = [j - 1 for j in subset], np.zeros(patterns, dtype=np.intp)
        for part in _chunks(session.pixel_count):
            planes = session.registers[rows, part.start // 8 : part.stop // 8]
            index = _fold(planes, len(range(session.pixel_count)[part]))
            counts += np.bincount(index, minlength=patterns)
        distribution = counts / session.pixel_count
        max_dev = float(np.abs(distribution - uniform).max())
        if not is_full:
            p_value = float(chisquare(counts).pvalue)

    if is_full:
        verdict = "full-recovery" if reliable else "unreliable-recovery"
    elif session.backend == BACKEND_STATEVECTOR:
        verdict = "no-information" if max_dev < AUDIT_TOLERANCE else "information-leak"
    else:
        verdict = "no-information" if p_value > AUDIT_P_THRESHOLD else "information-leak"
    return AuditReport(subset, distribution, max_dev, verdict, p_value)


def _write_file(magic: bytes, item, participant: int, size: int, parts) -> bytearray:
    """One container: header, the ``size`` body bytes that the iterable
    ``parts`` yields (bytes-like, C-contiguous), then the CRC32.

    Each part is copied into one preallocated buffer as it comes, so a part
    built on demand is freed before the next is made, and the buffer is
    returned as it is: the file is never held twice.
    """
    data = bytearray(_HEADER.size + size + _CRC.size)
    _HEADER.pack_into(
        data, 0, magic, _FORMAT_VERSION, _BACKEND_IDS[item.backend], item.n, participant,
        item.width, item.height, item.session_id,
    )
    end = len(data) - _CRC.size
    offset = _HEADER.size
    with memoryview(data) as view:
        for part in parts:
            with memoryview(part) as raw, raw.cast("B") as part_bytes:
                view[offset : offset + len(part_bytes)] = part_bytes
                offset += len(part_bytes)
        assert offset == end, f"container body is {offset - _HEADER.size} bytes, not {size}"
        _CRC.pack_into(data, end, zlib.crc32(view[:end]))
    return data


def _read_file(data: bytes, magic: bytes, what: str):
    """Check one container's size, CRC32 and header, in that order.

    Returns the participant slot, the pixel count, the body between header
    and trailer as a view of ``data``, and the header fields that
    ``ShareFile`` and ``SessionStore`` share, as keyword arguments.  Header
    fields out of bounds raise ``ValueError``, as a bad body does: the
    callers turn both into a ``FormatError`` that names the file.
    """
    if len(data) < _HEADER.size + _CRC.size:
        raise FormatError(f"truncated {what}: {len(data)} bytes")
    view = memoryview(data)
    body, (crc,) = view[: -_CRC.size], _CRC.unpack_from(view, len(view) - _CRC.size)
    if zlib.crc32(body) != crc:
        raise FormatError(f"{what} checksum mismatch")
    found, version, backend_id, n, participant, width, height, sid = _HEADER.unpack_from(view)
    if found != magic:
        raise FormatError(f"bad magic {found!r} in {what}, expected {magic!r}")
    if version != _FORMAT_VERSION:
        raise FormatError(f"unsupported {what} format version {version}")
    # An unknown backend id is passed on as its number, which fails.
    fields = _check_header(n, _BACKEND_NAMES.get(backend_id, backend_id), width, height, sid)
    header = dict(zip(_HEADER_FIELDS, fields))
    return participant, width * height, body[_HEADER.size :], header


def serialize_share(share: ShareFile) -> bytearray:
    """The share file; a sampled share's body is its payload as it is."""
    if share.backend == BACKEND_STATEVECTOR:
        return _write_file(_SHARE_MAGIC, share, share.participant, 0, ())
    plane = np.ascontiguousarray(share.payload)
    return _write_file(_SHARE_MAGIC, share, share.participant, plane.size, (plane,))


def deserialize_share(data: bytes) -> ShareFile:
    try:
        participant, pixel_count, body, header = _read_file(data, _SHARE_MAGIC, "share file")
        # A statevector body must be empty: ShareFile rejects any other.
        sampled = header["backend"] == BACKEND_SAMPLED
        payload = _bit_planes(body, pixel_count, "share payload") if sampled else body or ()
        return ShareFile(participant=participant, payload=payload, **header)
    except ValueError as exc:
        raise FormatError(f"{exc} in share file") from None


def _entry_head_size(n: int) -> int:
    """Bytes of a register table entry before its amplitudes: the amplitude
    form and the 2^n-bit support."""
    return _ENTRY_FORM.size + ((1 << n) + 7) // 8


def _dense_table_size(length: int, n: int) -> int:
    """Bytes of ``length`` dense n-qubit table entries, as a form byte and
    2^n complex128 amplitudes each: what ``MAX_SESSION_TABLE_BYTES`` caps."""
    return length * (_ENTRY_FORM.size + (16 << n))


def _stored_amplitudes(amplitudes: np.ndarray) -> tuple[int, np.ndarray]:
    """A table entry's amplitude form and the amplitudes the file stores:
    the first alone when all of them equal it bit for bit (so the sign of
    a zero component survives), else all."""
    bits = np.ascontiguousarray(amplitudes, "<c16").view("<u8").reshape(-1, 2)
    if (bits == bits[0]).all():
        return _FORM_SHARED, amplitudes[:1]
    return _FORM_PER_BIT, amplitudes


def serialize_session(session: SessionStore) -> bytearray:
    """The session file; a statevector table whose dense states exceed
    ``MAX_SESSION_TABLE_BYTES`` raises ``ValueError`` before any of it is
    built.

    Sampled planes, and a statevector table and its index, are written as
    the session holds them: every entry in table order, used or not.
    """
    seed = _SEED_FIELD.pack(session.master_seed)
    if session.backend == BACKEND_SAMPLED:
        planes = np.ascontiguousarray(session.registers)
        return _write_file(_SESSION_MAGIC, session, 0, len(seed) + planes.size, (seed, planes))
    table = session.registers
    length = len(table.states)
    dense_bytes = _dense_table_size(length, table.n)
    if dense_bytes > MAX_SESSION_TABLE_BYTES:
        raise ValueError(
            f"register table of {length} entries needs {dense_bytes} bytes, "
            f"over the {MAX_SESSION_TABLE_BYTES}-byte session table cap"
        )
    # Each entry's sparse view is built where it is needed and dropped.
    amplitude_count = sum(
        len(_stored_amplitudes(table._sparse(entry)[1])[1]) for entry in range(length)
    )
    table_bytes = length * _entry_head_size(table.n) + 16 * amplitude_count
    planes = (length - 1).bit_length()  # the bits of the last entry's number

    def parts():
        yield seed
        yield _TABLE_LENGTH.pack(length)
        for entry in range(length):
            support, amplitudes = table._sparse(entry)
            form, stored = _stored_amplitudes(amplitudes)
            bits = np.zeros(1 << table.n, dtype=bool)
            bits[support] = True
            yield _ENTRY_FORM.pack(form)
            yield np.packbits(bits)
            yield np.ascontiguousarray(stored, "<c16")
        # Index bit s of each pixel, top plane first, one chunk at a time.
        for s in reversed(range(planes)):
            for part in _chunks(len(table)):
                yield np.packbits(table.index[part] & (1 << s))

    size = len(seed) + _TABLE_LENGTH.size + table_bytes + planes * ((len(table) + 7) // 8)
    return _write_file(_SESSION_MAGIC, session, 0, size, parts())


def _read_register_table(body, n: int, pixel_count: int) -> RegisterTable:
    """Parse a register table plus index, checking every size first: the
    table length against the bytes left and the cap, then each entry's
    amplitude form and stored amplitude count, then the index planes."""
    if len(body) < _TABLE_LENGTH.size:
        raise FormatError("truncated session file: missing register table length")
    (length,) = _TABLE_LENGTH.unpack_from(body)
    offset = _TABLE_LENGTH.size
    head = _entry_head_size(n)
    heads_size, remaining = length * head, len(body) - offset
    if heads_size > remaining:
        raise FormatError(
            f"register table length {length} needs at least {heads_size} bytes, "
            f"only {remaining} remain"
        )
    dense_bytes = _dense_table_size(length, n)
    if dense_bytes > MAX_SESSION_TABLE_BYTES:
        raise FormatError(
            f"register table length {length} needs {dense_bytes} bytes of dense "
            f"states, over the {MAX_SESSION_TABLE_BYTES}-byte session table cap"
        )

    dim = 1 << n
    entries = []  # (support, form, support bits, amplitude offset) per entry
    for entry in range(length):
        (form,) = _ENTRY_FORM.unpack_from(body, offset)
        if form not in (_FORM_PER_BIT, _FORM_SHARED):
            raise FormatError(
                f"register table entry {entry} has amplitude form {form}, expected "
                f"{_FORM_PER_BIT} or {_FORM_SHARED}"
            )
        start = offset + _ENTRY_FORM.size
        offset += head
        support = _bit_planes(body[start:offset], dim, f"register table entry {entry} support")
        count = int(np.count_nonzero(np.unpackbits(support)))
        amplitude_bytes = 16 if form == _FORM_SHARED else 16 * count
        # The heads of the entries after this one are already counted.
        left = len(body) - offset - (length - entry - 1) * head
        if amplitude_bytes > left:
            raise FormatError(
                f"register table entry {entry} support needs {amplitude_bytes} bytes "
                f"of amplitudes, only {left} remain"
            )
        entries.append((support, form, count, offset))
        offset += amplitude_bytes
    planes = _bit_planes(body[offset:], pixel_count, "register index", (length - 1).bit_length())

    states = []
    for entry, (support, form, count, start) in enumerate(entries):
        shared = form == _FORM_SHARED
        stored = np.frombuffer(body, dtype="<c16", count=1 if shared else count, offset=start)
        # Bounding every component first keeps the squares finite, and
        # also rejects NaN, which the norm comparison below would pass.
        peak = float(np.abs(stored.view("<f8")).max(initial=0.0))
        if not peak <= 1.0 + NORM_GUARD:
            raise FormatError(
                f"register table entry {entry} norm cannot be 1: an amplitude "
                f"component has magnitude {peak:.3e}"
            )
        norm = float((np.abs(stored) ** 2).sum())
        if shared:  # the one amplitude stands for every support bit
            norm *= count
        if abs(norm - 1.0) > NORM_GUARD:
            raise FormatError(
                f"register table entry {entry} norm deviates from 1 by "
                f"{abs(norm - 1.0):.3e}"
            )
        if not stored.all():
            raise FormatError(f"register table entry {entry} support holds a zero amplitude")
        # One table has one encoding: form 0 only where the writer uses it.
        if not shared and _stored_amplitudes(stored)[0] == _FORM_SHARED:
            raise FormatError(
                f"register table entry {entry} stores {count} equal amplitudes "
                f"in form {_FORM_PER_BIT}, expected form {_FORM_SHARED}"
            )
        amplitudes = np.zeros(dim, dtype=np.complex128)
        # A form-1 entry's one amplitude is broadcast over its support.
        amplitudes[np.unpackbits(support, count=dim).view(bool)] = stored
        states.append(StateVector(n, amplitudes))

    index = _fold(planes, pixel_count)  # a fresh array: the table keeps it
    return RegisterTable(n, states, index)


def deserialize_session(data: bytes) -> SessionStore:
    try:
        slot, pixel_count, body, header = _read_file(data, _SESSION_MAGIC, "session file")
        if slot:
            raise FormatError(f"session file participant slot is {slot}, expected 0")
        if len(body) < _SEED_FIELD.size:
            raise FormatError("truncated session file: missing master seed")
        (master_seed,) = _SEED_FIELD.unpack_from(body)
        body, n = body[_SEED_FIELD.size :], header["n"]
        if header["backend"] == BACKEND_STATEVECTOR:
            registers = _read_register_table(body, n, pixel_count)
        else:
            registers = _bit_planes(body, pixel_count, "session outcome payload", n)
        return SessionStore(master_seed=master_seed, registers=registers, **header)
    except ValueError as exc:
        raise FormatError(f"{exc} in session file") from None
