"""Classical (n, n) visual secret sharing baseline with pixel expansion.

Each pixel becomes m = 2^(n-1) subpixels per share.  The white matrix
set's base matrix has the even-parity n-bit vectors as columns, the black
set's the odd-parity vectors; the actual sets are those bases under all
column permutations, represented lazily as base matrix + a random
permutation drawn at share time.  Stacking (per-subpixel OR) all n shares
gives Hamming weight m-1 for a white pixel and m for a black one, so the
thresholds are d = m and relative difference 1/m.  Restricting to fewer
than n rows leaves the white and black collections indistinguishable.

Image sharing draws every pixel's permutation from one seeded key
stream, ``np.random.PCG64DXSM(seed)`` (O'Neill's PCG family with the DXSM
output function), which costs about half of Philox per 64-bit word.  Up
to n=9 (``_key_dtype``) pixel l's m sort keys are the 32-bit halves of
raw words (l-1)*m/2 .. l*m/2-1 of that stream, key 2i word i's low half
and key 2i+1 its high half; above n=9 they are raw 64-bit words
(l-1)*m .. l*m-1.  ``advance`` jumps to any word, so each pixel's keys
are a fixed slice of the one stream.  Pixel l's column order is the
stable argsort of its keys, unless two of its keys agree above bit n:
then it is the stable argsort of m fresh 64-bit keys from the pixel's
own counter-based stream, ``Philox(key=_TIE_KEY_TAG | seed, counter=l <<
128)`` (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).  The order is uniform either way: i.i.d. keys with distinct
prefixes are ordered uniformly by symmetry, and a tied row is redrawn
independently.  Each pixel's sort words are its keys, in place, with
their low n bits replaced by the white base's value for each column, and
sorting them once leaves the white values in that order in the low bits
(see ``_sort_rows``).  Pixels are processed a few rows, or a run of
pixels within a row, at a time in whole-array operations: the chunk's
values are narrowed once and moved a whole block row at a time into the
share grid's layout, and shares 1..n-1 have their rows masked to their
bit and packed.  Every column's n bits XOR to the pixel's colour, so share n is
the XOR of the other packed shares and the packed colours.  So the
result depends neither on the chunking nor on anything but the seed, n
and the pixel's index and colour.

The n shares are one ``Transparencies``: n packed bit planes, one bit per
subpixel, each plane a share's P4 raster.  Stacking ORs the planes into a
one-plane ``Transparencies``, still one bit per subpixel.  Since d = m, a
pixel decodes black exactly when its whole block is black, so decoding
ANDs each block's packed rows, then its bytes and bits, and the stack is
never unpacked.

Boolean share matrices are plain numpy arrays of shape (n, m) with entries
in {0, 1}, 1 meaning a black subpixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from . import protocol
from .errors import FormatError, int_in_range
from .image_io import MAX_DIMENSION, BinaryImage, check_sides
from .parity import index_parities
from .protocol import _check_seed
# Re-exported: perfbench's tracer test looks pixel_rng up in this namespace.
from .protocol import pixel_rng  # noqa: F401
from .statevector import check_subset

#: Cap on n * 2^(n-1) * pixels, the subpixels that all n shares of an
#: image hold together (one bit each, as is their one-plane stack); also
#: caps n * 2^(n-1) for the bases.  2^27 admits n=8 at the largest share
#: dimensions and n up to 23.
MAX_BASELINE_SUBPIXELS = 1 << 27

#: Subpixels drawn per chunk, rounded down to whole image rows or, where
#: one row holds more (from n=11), to a run of whole pixels within a row,
#: at least one: 512 pixels at n=8.  A chunk's keys, which are its sort
#: words, take 4 bytes a subpixel up to n=9 (8 above), 256 KiB, as does
#: the tie check's one temporary, so they stay in a 2 MiB L2 cache through
#: the sort.  At 128x128, n=8, 2^15 to 2^19 ran within 7% of each other.
_CHUNK_SUBPIXELS = 1 << 16

#: High 64 bits of the Philox key of the streams that redraw a tied row's
#: sort keys; the low 64 bits are the seed.  Keeps them apart from the
#: sampled backend's ``Philox(key=protocol._SAMPLED_KEY_TAG | seed)``; the
#: share stream ``PCG64DXSM(seed)`` is another generator altogether.
_TIE_KEY_TAG = 2 << 64


@dataclass(frozen=True)
class Transparencies:
    """The n shares of an image as packed bit planes.

    ``planes`` is a ``(n, height, ceil(width/8))`` uint8 array: plane j-1
    is share j's rows packed MSB first with zero pad bits, its P4 raster.
    ``len()`` is n; ``shares[j]`` and iteration give unpacked
    ``BinaryImage``s.
    """

    width: int
    height: int
    planes: np.ndarray = field(repr=False)

    def __post_init__(self):
        width, height = check_sides(self.width, self.height)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        planes = self.planes
        if not (isinstance(planes, np.ndarray) and planes.ndim == 3 and len(planes)):
            raise ValueError("share planes must be a 3-D array holding at least one plane")
        rows = len(planes) * self.height
        protocol._bit_planes(planes.reshape(-1, planes.shape[2]), self.width, "share planes", rows)

    def __len__(self) -> int:
        return len(self.planes)

    def __getitem__(self, j: int) -> BinaryImage:
        pixels = np.unpackbits(self.planes[j], axis=1, count=self.width)
        return BinaryImage(self.width, self.height, pixels)

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transparencies):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.planes, other.planes))
        )


@dataclass(frozen=True)
class MatrixSets:
    """Lazy white/black matrix collections: base matrices + thresholds."""

    c0_base: np.ndarray
    c1_base: np.ndarray
    d: int
    relative_difference: Fraction

    @property
    def n(self) -> int:
        return self.c0_base.shape[0]

    @property
    def m(self) -> int:
        return self.c0_base.shape[1]


def _check_expansion(n: int, pixels: int) -> int:
    """n as a Python int; rejects n, or an image of ``pixels`` pixels,
    before any allocation."""
    n = int_in_range(n, 2, math.inf, "need at least 2 participants, got {!r}")
    cap = MAX_BASELINE_SUBPIXELS
    if n > cap.bit_length() or (n * pixels) << (n - 1) > cap:
        raise ValueError(
            f"classical baseline at n={n} needs {n} x 2^{n - 1} x {pixels} "
            f"subpixels, over the cap of {cap}"
        )
    return n


def _white_columns(n: int) -> np.ndarray:
    """The even-parity n-bit values in ascending order: the white base.

    Share-matrix row 1 is the most significant bit.  Value 2h + last is
    ascending in the free head h, whose parity fixes the last bit; the
    black base is the same list with the last bit flipped.
    """
    m = 1 << (n - 1)
    heads = np.arange(m, dtype=np.min_scalar_type((1 << n) - 1))
    return (heads << 1) | index_parities(m)


def build_nn_matrix_sets(n: int) -> MatrixSets:
    """Base matrices whose columns are the even/odd-parity n-bit vectors."""
    n = _check_expansion(n, 1)
    m = 1 << (n - 1)
    white = _white_columns(n)

    def columns(values: np.ndarray) -> np.ndarray:
        matrix = np.zeros((n, m), dtype=np.uint8)
        for row in range(n):
            matrix[row] = (values >> (n - 1 - row)) & 1
        return matrix

    return MatrixSets(
        c0_base=columns(white),
        c1_base=columns(white ^ 1),
        d=m,
        relative_difference=Fraction(1, m),
    )


def classical_share_pixel(
    bit: int, sets: MatrixSets, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random member of the white (bit=0) or black (bit=1) set."""
    base = sets.c1_base if bit else sets.c0_base
    return base[:, rng.permutation(sets.m)]


def stack_and_weight(matrix: np.ndarray, rows) -> tuple[np.ndarray, int]:
    """Per-column OR of the selected 1-based rows, plus its Hamming weight."""
    rows = [r - 1 for r in check_subset(len(matrix), rows)]
    stacked = np.bitwise_or.reduce(matrix[rows], axis=0)
    return stacked, int(stacked.sum())


def restricted_sets_indistinguishable(sets: MatrixSets, rows) -> bool:
    """Whether the row-restricted white and black collections coincide.

    Permuting columns of a base matrix realizes every column order, so the
    restricted collections are equal multisets exactly when the restricted
    bases have the same column multiset.
    """
    rows = [r - 1 for r in check_subset(sets.n, rows)]

    def column_values(base: np.ndarray) -> np.ndarray:
        restricted = base[rows]
        weights = 1 << np.arange(len(rows))[::-1]
        return np.sort(weights @ restricted)

    return bool(
        np.array_equal(column_values(sets.c0_base), column_values(sets.c1_base))
    )


def block_shape(n: int) -> tuple[int, int]:
    """Subpixel block dimensions (rows, cols) with rows*cols = 2^(n-1).

    Blocks are as square as possible, wider than tall when uneven; the m
    subpixels of share-matrix row j fill the block row-major.
    """
    half = (n - 1) // 2
    return 1 << half, 1 << (n - 1 - half)


def _key_dtype(n: int) -> np.dtype:
    """The sort keys' dtype at n: ``'<u4'`` while a row's expected prefix
    ties, C(m, 2) * 2^(n-32) with m = 2^(n-1), stay at or below 2^-8
    (n <= 9), else ``'<u8'``."""
    m = 1 << (n - 1)
    return np.dtype("<u4" if m * (m - 1) << n <= 1 << 25 else "<u8")


def _tie_keys(seed: int, pixels: np.ndarray, m: int) -> np.ndarray:
    """m 64-bit keys from each pixel's own stream, one row per 1-based
    pixel index in ``pixels``."""
    return np.stack([
        np.random.Philox(key=_TIE_KEY_TAG | seed, counter=l << 128).random_raw(m)
        for l in pixels.tolist()
    ])


def _sort_rows(words: np.ndarray, values: np.ndarray, tie_keys) -> np.ndarray:
    """Sorts each row of ``words`` in place so that its low b bits hold
    ``values`` in the row's column order, and returns ``words``.

    ``words`` holds one row of m unsigned sort keys per pixel; ``values``
    holds m ascending unsigned values below 2^b.  Each word's low b bits
    are replaced by its column's value and every row is sorted once;
    callers read only the low b bits.  If no two words of a row agree
    above bit b (adjacent sorted words suffice to check), the row's key
    prefixes are distinct: they order the keys exactly as the keys do and
    no two keys tie, and the values rise with the column, so the low bits
    are the values in the stable argsort order of the keys.  A row where
    two prefixes agree gets the values in the stable argsort order of its
    row of ``tie_keys(rows)``, called once with the tied row numbers.
    """
    m = words.shape[1]
    low = words.dtype.type((1 << int(values[-1]).bit_length()) - 1)
    words &= ~low
    words |= values
    words.sort(axis=1)
    flat = words.reshape(-1)
    gaps = flat[1:] ^ flat[:-1]
    gaps[m - 1 :: m] = ~low  # the pair straddles two rows
    if gaps.min() <= low:
        tied = np.unique(np.flatnonzero(gaps <= low) // m)
        words[tied] = values[np.argsort(tie_keys(tied), axis=1, kind="stable")]
    return words


def classical_share_image(image: BinaryImage, n: int, seed: int) -> Transparencies:
    """Expand every pixel into per-share subpixel blocks; returns n shares.

    Pixel l's share matrix is its colour's base with the columns in the
    order the module docstring defines from the PCG64DXSM stream seeded
    by ``seed``: a uniformly random member of that colour's set.
    """
    seed = _check_seed(seed)  # a Python int, so that a tag can be or-ed in
    n = _check_expansion(n, image.pixel_count)
    bh, bw = block_shape(n)
    width, height = image.width * bw, image.height * bh
    if width > MAX_DIMENSION or height > MAX_DIMENSION:
        raise ValueError(
            f"classical baseline shares at n={n} would be {width}x{height}, "
            f"over the {MAX_DIMENSION} pixel cap per side"
        )
    m = bh * bw
    white = _white_columns(n)
    block_row = np.dtype((np.void, bw * white.itemsize))
    dtype = _key_dtype(n)
    stream = np.random.PCG64DXSM(seed)
    planes = np.empty((n, height, (width + 7) // 8), dtype=np.uint8)
    blocks = planes.reshape(n, image.height, bh, -1)
    colors = image.as_grid()
    pixels = _CHUNK_SUBPIXELS // m
    unit = max(1, 8 // bw)  # pixels whose block columns fill a byte: a run starts on one
    rows = max(1, pixels // image.width)
    cols = image.width if pixels >= image.width else max(unit, pixels - pixels % unit)
    for top, left in product(range(0, image.height, rows), range(0, image.width, cols)):
        chunk = colors[top : top + rows, left : left + cols]
        count, run = chunk.shape
        # Little-endian words read as '<u4' are each word's low half, then
        # its high half, whatever the platform's byte order.
        raw = stream.random_raw(chunk.size * m * dtype.itemsize // 8)
        keys = raw.astype("<u8", copy=False).view(dtype).reshape(-1, m)
        first = top * image.width + left + 1  # the chunk's first pixel index l
        words = _sort_rows(keys, white, lambda tied: _tie_keys(seed, first + tied, m))
        # Narrowing keeps bits 0..n-1, the white value, and maybe prefix
        # bits that no plane reads.  A pixel's m values are its bh block
        # rows of bw subpixels; moving whole block rows gives the share
        # grid's row-major layout (image row, block row, image column).
        values = words.astype(white.dtype).view(block_row)
        del raw, keys, words  # the keys go before the block rows are copied
        grid = values.reshape(count, run, bh).transpose(0, 2, 1).copy()
        grid = grid.view(white.dtype).reshape(count * bh, run * bw)
        band = blocks[:, top : top + count, :, left * bw // 8 : ((left + run) * bw + 7) // 8]
        bits = np.empty_like(grid)
        for row in range(n - 1):
            # packbits reads every non-zero value as a 1.
            np.bitwise_and(grid, 1 << (n - 1 - row), out=bits)
            band[row] = np.packbits(bits, axis=1).reshape(count, bh, -1)
        # A white column has even parity and a black one odd, so the last
        # plane is the XOR of the others and the colour; pad bits stay 0.
        last = band[n - 1]
        np.bitwise_xor.reduce(band[: n - 1], axis=0, out=last)
        last ^= np.packbits(np.repeat(chunk, bw, axis=1), axis=1)[:, None, :]
        del values, grid, bits  # before the next chunk's draw
    return Transparencies(width, height, planes)


def classical_recover_image(shares: Transparencies) -> Transparencies:
    """Stack transparencies: the OR of all share planes (black wins), one
    packed plane of the shares' size."""
    stacked = np.bitwise_or.reduce(shares.planes, axis=0, keepdims=True)
    return Transparencies(shares.width, shares.height, stacked)


def _fold_blocks(stacked: Transparencies, n: int, op) -> np.ndarray:
    """``op`` (``np.bitwise_and`` or ``np.bitwise_or``) over each block of a
    one-plane stack, one 0/1 byte per pixel: over its packed rows, then its
    bytes in halves, then its bits by shifts that leave the result in the
    block's first bit."""
    if len(stacked) != 1:
        raise ValueError(f"a stacked image is one plane, got {len(stacked)}")
    bh, bw = block_shape(n)
    if stacked.width % bw or stacked.height % bh:
        raise FormatError(
            f"stacked image {stacked.width}x{stacked.height} is not a whole "
            f"number of {bh}x{bw} blocks"
        )
    width, height = stacked.width // bw, stacked.height // bh
    rows = op.reduce(stacked.planes[0].reshape(height, bh, -1), axis=1)
    while rows.shape[1] > width:
        rows = op(rows[:, 0::2], rows[:, 1::2])
    span = min(bw, 8)  # a block's bits in one byte
    for shift in (1, 2, 4)[: span.bit_length() - 1]:
        op(rows, rows << shift, out=rows)
    return np.unpackbits(rows, axis=1)[:, : width * span : span]


def decode_stacked(stacked: Transparencies, n: int) -> BinaryImage:
    """Pixels from the one-plane stack: block weight >= d = m, a wholly
    black block, reads black; a white block weighs m - 1 or less.  Inverts
    the m-times expansion of classical_share_image."""
    n = _check_expansion(n, 1)
    bits = _fold_blocks(stacked, n, np.bitwise_and)
    return BinaryImage(bits.shape[1], bits.shape[0], bits)


@dataclass
class ComparisonReport:
    """Three property rows plus measured evidence from end-to-end runs.

    ``baseline_shares`` are the classical shares the evidence came from and
    ``baseline_stacked`` is their stack.
    """

    n: int
    baseline_expansion: int
    quantum_expansion: int
    rows: dict[str, tuple[str, str]]
    baseline_share_dims: tuple[int, int]
    baseline_decode_matches: bool
    baseline_white_blocks_dirty: bool
    quantum_share_entries_per_pixel: int
    quantum_recovered_equal: bool
    baseline_shares: Transparencies = field(repr=False)
    baseline_stacked: Transparencies = field(repr=False)


def comparison_report(n: int, image: BinaryImage, seed: int = 0) -> ComparisonReport:
    """Run the classical baseline and the quantum pipeline side by side."""
    shares = classical_share_image(image, n, seed)
    n = len(shares)  # n as a Python int
    stacked = classical_recover_image(shares)
    decoded = decode_stacked(stacked, n)

    # Loss in resolution shows up as black subpixels inside white blocks.
    dirty = bool(_fold_blocks(stacked, n, np.bitwise_or)[image.as_grid() == 0].any())

    backend = (
        protocol.BACKEND_STATEVECTOR
        if n <= protocol.MAX_QUBITS
        else protocol.BACKEND_SAMPLED
    )
    session, qshares = protocol.share_image(image, n, backend, seed)
    recovered = protocol.recover_image(qshares, session, seed)

    return ComparisonReport(
        n=n,
        baseline_expansion=1 << (n - 1),
        quantum_expansion=1,
        rows={
            "single-pixel parallel processing": ("Yes", "Yes"),
            "pixel expansion": ("Yes", "No"),
            "loss in resolution": ("Yes", "No"),
        },
        baseline_share_dims=(shares.width, shares.height),
        baseline_decode_matches=decoded == image,
        baseline_white_blocks_dirty=dirty,
        quantum_share_entries_per_pixel=1,
        quantum_recovered_equal=recovered == image,
        baseline_shares=shares,
        baseline_stacked=stacked,
    )
