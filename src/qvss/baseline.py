"""Classical (n, n) visual secret sharing baseline with pixel expansion.

Each pixel becomes m = 2^(n-1) subpixels per share.  The white matrix
set's base matrix has the even-parity n-bit vectors as columns, the black
set's the odd-parity vectors; the actual sets are those bases under all
column permutations, represented lazily as base matrix + a random
permutation drawn at share time.  Stacking (per-subpixel OR) all n shares
gives Hamming weight m-1 for a white pixel and m for a black one, so the
thresholds are d = m and relative difference 1/m.  Restricting to fewer
than n rows leaves the white and black collections indistinguishable.

Image sharing draws every pixel's permutation from one counter-based key
stream, ``np.random.Philox(key=seed)`` (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): pixel l's m sort keys are raw
64-bit words (l-1)*m .. l*m-1 of that stream, and its column order is the
stable argsort of those keys.  Pixels are processed a few rows at a time
in whole-array operations, so the result depends neither on the chunking
nor on anything but the seed, n and the pixel's index and colour.

Boolean share matrices are plain numpy arrays of shape (n, m) with entries
in {0, 1}, 1 meaning a black subpixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import FormatError
from .image_io import MAX_DIMENSION, BinaryImage
from .parity import index_parities
from .protocol import _check_seed
# Re-exported: perfbench's tracer test looks pixel_rng up in this namespace.
from .protocol import pixel_rng  # noqa: F401

#: Cap on n * 2^(n-1) * pixels, the subpixels (one byte each) that all n
#: shares of an image hold together; also caps n * 2^(n-1) for the bases.
#: 2^27 admits n=8 at the largest share dimensions and n up to 23.
MAX_BASELINE_SUBPIXELS = 1 << 27

#: Subpixels drawn per chunk (rounded to whole image rows): about 4096
#: pixels at n=8, which keeps the chunk's keys and orders near 10 MB.
_CHUNK_SUBPIXELS = 1 << 19


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


def _check_expansion(n: int, pixels: int) -> None:
    """Reject n, or an image of ``pixels`` pixels, before any allocation."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need at least 2 participants, got {n!r}")
    cap = MAX_BASELINE_SUBPIXELS
    if n > cap.bit_length() or (n * pixels) << (n - 1) > cap:
        raise ValueError(
            f"classical baseline at n={n} needs {n} x 2^{n - 1} x {pixels} "
            f"subpixels, over the cap of {cap}"
        )


def _white_columns(n: int) -> np.ndarray:
    """The even-parity n-bit values in ascending order: the white base.

    Share-matrix row 1 is the most significant bit.  Value 2h + last is
    ascending in the free head h, whose parity fixes the last bit; the
    black base is the same list with the last bit flipped.
    """
    m = 1 << (n - 1)
    heads = np.arange(m, dtype=np.min_scalar_type((1 << n) - 1))
    return (heads << 1) | index_parities(m).astype(heads.dtype)


def build_nn_matrix_sets(n: int) -> MatrixSets:
    """Base matrices whose columns are the even/odd-parity n-bit vectors."""
    _check_expansion(n, 1)
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
    rows = list(rows)
    if not rows:
        raise ValueError("row subset must be non-empty")
    stacked = np.bitwise_or.reduce(matrix[[r - 1 for r in rows]], axis=0)
    return stacked, int(stacked.sum())


def restricted_sets_indistinguishable(sets: MatrixSets, rows) -> bool:
    """Whether the row-restricted white and black collections coincide.

    Permuting columns of a base matrix realizes every column order, so the
    restricted collections are equal multisets exactly when the restricted
    bases have the same column multiset.
    """
    rows = [r - 1 for r in rows]
    if not rows:
        raise ValueError("row subset must be non-empty")

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


def _column_orders(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, axis=1, kind="stable")``, computed faster.

    Random 64-bit keys almost never tie, and without ties every sort
    order agrees with the stable one, so rows are sorted with numpy's
    default sort and only rows holding a tie are sorted again stably.
    """
    orders = np.argsort(keys, axis=1)
    ordered = np.sort(keys, axis=1)
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if tied.any():
        orders[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    return orders


def classical_share_image(
    image: BinaryImage, n: int, seed: int
) -> list[BinaryImage]:
    """Expand every pixel into per-share subpixel blocks; returns n shares.

    Pixel l's share matrix is its colour's base with the columns in the
    stable argsort order of words (l-1)*m .. l*m-1 of the Philox stream
    keyed by ``seed``: a uniformly random member of that colour's set.
    """
    _check_seed(seed)
    _check_expansion(n, image.pixel_count)
    bh, bw = block_shape(n)
    width, height = image.width * bw, image.height * bh
    if width > MAX_DIMENSION or height > MAX_DIMENSION:
        raise ValueError(
            f"classical baseline shares at n={n} would be {width}x{height}, "
            f"over the {MAX_DIMENSION} pixel cap per side"
        )
    m = bh * bw
    white = _white_columns(n)
    shifts = range(n - 1, -1, -1)
    keys = np.random.Philox(key=seed)
    grids = [np.empty((height, width), dtype=np.uint8) for _ in range(n)]
    colors = image.as_grid()
    rows = max(1, _CHUNK_SUBPIXELS // (image.width * m))
    for top in range(0, image.height, rows):
        chunk = colors[top : top + rows]
        count = chunk.shape[0]
        orders = _column_orders(keys.random_raw(chunk.size * m).reshape(-1, m))
        values = white[orders].reshape(count, image.width, bh, bw)
        values ^= chunk[:, :, None, None]  # black: flip the last bit
        # Pixel blocks side by side: (image row, block row, image column,
        # block column) is the share grid's row-major layout.
        blocks = values.transpose(0, 2, 1, 3)
        for grid, shift in zip(grids, shifts):
            band = grid[top * bh : (top + count) * bh].reshape(blocks.shape)
            np.bitwise_and(blocks >> shift, 1, out=band)
    return [BinaryImage(width, height, grid) for grid in grids]


def classical_recover_image(shares: list[BinaryImage]) -> BinaryImage:
    """Stack transparencies: per-subpixel OR of all shares (black wins)."""
    if not shares:
        raise ValueError("need at least one share to stack")
    first = shares[0]
    for share in shares[1:]:
        if share.width != first.width or share.height != first.height:
            raise FormatError(
                f"share dimensions disagree: {share.width}x{share.height} vs "
                f"{first.width}x{first.height}"
            )
    stacked = first.pixels.copy()
    for share in shares[1:]:
        stacked |= share.pixels
    return BinaryImage(first.width, first.height, stacked)


def _block_weights(stacked: BinaryImage, n: int) -> np.ndarray:
    """Black subpixels per block of a stacked image, one per pixel."""
    bh, bw = block_shape(n)
    if stacked.width % bw or stacked.height % bh:
        raise FormatError(
            f"stacked image {stacked.width}x{stacked.height} is not a whole "
            f"number of {bh}x{bw} blocks"
        )
    width, height = stacked.width // bw, stacked.height // bh
    return stacked.as_grid().reshape(height, bh, width, bw).sum(axis=(1, 3))


def decode_stacked(stacked: BinaryImage, n: int) -> BinaryImage:
    """Collapse subpixel blocks back to pixels by thresholding at d.

    Block weight >= d reads black; d - alpha*m = m - 1 or less reads
    white.  Inverts the m-times expansion of classical_share_image.
    """
    _check_expansion(n, 1)
    d = 1 << (n - 1)
    weights = _block_weights(stacked, n)
    height, width = weights.shape
    return BinaryImage(width, height, (weights >= d).astype(np.uint8).reshape(-1))


@dataclass
class ComparisonReport:
    """Three property rows plus measured evidence from end-to-end runs.

    ``baseline_shares`` are the classical shares the evidence came from.
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
    baseline_shares: list[BinaryImage] = field(repr=False)


def comparison_report(
    n: int, image: BinaryImage | None = None, seed: int = 0
) -> ComparisonReport:
    """Run the classical baseline and the quantum pipeline side by side."""
    from . import protocol
    from .image_io import from_pixel_list

    if image is None:
        image = from_pixel_list(4, 1, [0, 1, 1, 0])

    shares = classical_share_image(image, n, seed)
    stacked = classical_recover_image(shares)
    decoded = decode_stacked(stacked, n)

    # Loss in resolution shows up as black subpixels inside white blocks.
    white = image.as_grid() == 0
    dirty = bool(_block_weights(stacked, n)[white].any())

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
        baseline_share_dims=(shares[0].width, shares[0].height),
        baseline_decode_matches=decoded == image,
        baseline_white_blocks_dirty=dirty,
        quantum_share_entries_per_pixel=1,
        quantum_recovered_equal=recovered == image,
        baseline_shares=shares,
    )
