import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from qvss import baseline, protocol
from qvss.baseline import (
    Transparencies,
    block_shape,
    build_nn_matrix_sets,
    classical_recover_image,
    classical_share_image,
    classical_share_pixel,
    comparison_report,
    decode_stacked,
    restricted_sets_indistinguishable,
    stack_and_weight,
)
from qvss.errors import FormatError
from qvss.image_io import BinaryImage, from_pixel_list, write_pbm

DEMO_IMAGE = from_pixel_list(4, 1, [0, 1, 1, 0])


def restricted_multiset_by_enumeration(base, rows):
    """Oracle: materialize the whole set by enumerating column permutations."""
    out = []
    for perm in permutations(range(base.shape[1])):
        out.append(tuple(tuple(base[r - 1, list(perm)]) for r in rows))
    return sorted(out)


# --- matrix sets ---


def test_two_participant_bases():
    sets = build_nn_matrix_sets(2)
    assert sets.m == 2
    # columns 00,11 and 01,10
    np.testing.assert_array_equal(sets.c0_base, [[0, 1], [0, 1]])
    np.testing.assert_array_equal(sets.c1_base, [[0, 1], [1, 0]])
    assert sets.d == 2
    assert sets.relative_difference == Fraction(1, 2)


def test_rejects_single_participant():
    with pytest.raises(ValueError):
        build_nn_matrix_sets(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_full_stack_weights(n):
    # Frozen from exhaustive enumeration: white stacks to 2^(n-1)-1,
    # black to 2^(n-1); column permutations cannot change a stack weight.
    sets = build_nn_matrix_sets(n)
    rows = range(1, n + 1)
    _, white_weight = stack_and_weight(sets.c0_base, rows)
    _, black_weight = stack_and_weight(sets.c1_base, rows)
    assert white_weight == (1 << (n - 1)) - 1
    assert black_weight == 1 << (n - 1)
    assert black_weight >= sets.d
    assert white_weight <= sets.d - sets.relative_difference * sets.m


@pytest.mark.parametrize("n", [2, 3])
def test_stack_weight_invariant_under_all_permutations(n):
    sets = build_nn_matrix_sets(n)
    for base, expected in ((sets.c0_base, sets.m - 1), (sets.c1_base, sets.m)):
        for perm in permutations(range(sets.m)):
            _, weight = stack_and_weight(base[:, list(perm)], range(1, n + 1))
            assert weight == expected


@pytest.mark.parametrize("n", range(2, 6))
def test_proper_subsets_indistinguishable(n):
    sets = build_nn_matrix_sets(n)
    for k in range(1, n):
        for rows in combinations(range(1, n + 1), k):
            assert restricted_sets_indistinguishable(sets, rows)


@pytest.mark.parametrize("n", [2, 3])
def test_indistinguishability_against_enumeration_oracle(n):
    sets = build_nn_matrix_sets(n)
    for k in range(1, n):
        for rows in combinations(range(1, n + 1), k):
            oracle_equal = restricted_multiset_by_enumeration(
                sets.c0_base, rows
            ) == restricted_multiset_by_enumeration(sets.c1_base, rows)
            assert oracle_equal == restricted_sets_indistinguishable(sets, rows)
            assert oracle_equal


def test_full_sets_are_distinguishable():
    sets = build_nn_matrix_sets(3)
    assert not restricted_sets_indistinguishable(sets, [1, 2, 3])


# --- per-pixel sharing ---


def test_share_pixel_white_is_base_permutation():
    sets = build_nn_matrix_sets(2)
    matrix = classical_share_pixel(0, sets, np.random.default_rng(0))
    assert sorted(map(tuple, matrix.T)) == sorted(map(tuple, sets.c0_base.T))


def test_share_pixel_black_rows_complementary():
    sets = build_nn_matrix_sets(2)
    matrix = classical_share_pixel(1, sets, np.random.default_rng(1))
    np.testing.assert_array_equal(matrix[0] ^ matrix[1], [1, 1])


def test_share_pixel_deterministic_with_seed():
    sets = build_nn_matrix_sets(4)
    a = classical_share_pixel(1, sets, np.random.default_rng(33))
    b = classical_share_pixel(1, sets, np.random.default_rng(33))
    np.testing.assert_array_equal(a, b)


def test_stack_and_weight_rejects_empty_subset():
    sets = build_nn_matrix_sets(3)
    with pytest.raises(ValueError):
        stack_and_weight(sets.c0_base, [])


def test_stack_single_all_zero_row():
    matrix = np.zeros((2, 4), dtype=np.uint8)
    stacked, weight = stack_and_weight(matrix, [1])
    assert weight == 0
    np.testing.assert_array_equal(stacked, [0, 0, 0, 0])


# --- image pipeline ---


def test_block_shapes():
    assert block_shape(2) == (1, 2)
    assert block_shape(3) == (2, 2)
    assert block_shape(4) == (2, 4)


def test_share_image_expansion_counts():
    shares = classical_share_image(DEMO_IMAGE, 3, seed=5)
    assert len(shares) == 3
    for share in shares:
        assert share.pixel_count == 16  # 4 pixels x m=4 subpixels


def test_stacked_decode_round_trip():
    shares = classical_share_image(DEMO_IMAGE, 3, seed=5)
    stacked = classical_recover_image(shares)
    assert decode_stacked(stacked, 3) == DEMO_IMAGE


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_images_round_trip(n):
    rng = np.random.default_rng(n)
    image = BinaryImage(9, 7, rng.integers(0, 2, size=63))
    shares = classical_share_image(image, n, seed=77)
    assert decode_stacked(classical_recover_image(shares), n) == image


def test_single_white_pixel_two_shares():
    image = from_pixel_list(1, 1, [0])
    shares = classical_share_image(image, 2, seed=1)
    stacked = classical_recover_image(shares)
    assert int(stacked[0].pixels.sum()) == 1  # weight 1 < d=2


def test_white_pixel_block_is_not_all_white():
    # the visible cost of pixel expansion: white blocks keep black specks
    image = from_pixel_list(1, 1, [0])
    stacked = classical_recover_image(classical_share_image(image, 3, seed=2))
    assert stacked[0].pixels.any()
    assert decode_stacked(stacked, 3) == image


@pytest.mark.parametrize(
    "width, height, planes, message",
    [
        (10, 2, np.zeros((3, 2, 2), dtype=np.uint16), "uint8 array"),
        (10, 2, np.zeros((3, 2, 3), dtype=np.uint8), "shape \\(6, 2\\)"),
        (10, 2, np.zeros((3, 3, 2), dtype=np.uint8), "shape \\(6, 2\\)"),
        (10, 2, np.zeros((2, 2), dtype=np.uint8), "3-D array"),
        (10, 2, np.zeros((0, 2, 2), dtype=np.uint8), "at least one plane"),
        (10, 2, np.zeros((3, 2, 2), dtype=np.uint8).tolist(), "3-D array"),
        (0, 2, np.zeros((3, 2, 0), dtype=np.uint8), "dimensions"),
        (4097, 1, np.zeros((3, 1, 513), dtype=np.uint8), "dimensions"),
    ],
)
def test_transparencies_reject_a_wrong_dtype_or_shape(width, height, planes, message):
    with pytest.raises(ValueError, match=message):
        Transparencies(width, height, planes)


def test_transparencies_reject_set_pad_bits():
    # A 10-subpixel row leaves 6 pad bits in its second byte.
    planes = np.zeros((3, 2, 2), dtype=np.uint8)
    Transparencies(10, 2, planes.copy())
    planes[2, 1, 1] = 0b0010_0000
    with pytest.raises(ValueError, match="non-zero pad bits"):
        Transparencies(10, 2, planes)


def test_transparencies_index_and_iterate_as_unpacked_images():
    image = BinaryImage(5, 3, np.random.default_rng(2).integers(0, 2, size=15))
    shares = classical_share_image(image, 3, seed=4)
    assert len(shares) == 3
    assert shares.planes.shape == (3, 6, 2)
    unpacked = list(shares)
    assert unpacked == [shares[0], shares[1], shares[2]] and unpacked[-1] == shares[-1]
    for j, share in enumerate(unpacked):
        assert (share.width, share.height) == (10, 6)
        np.testing.assert_array_equal(np.packbits(share.as_grid(), axis=1), shares.planes[j])
    assert shares == Transparencies(10, 6, shares.planes.copy())
    assert shares != Transparencies(10, 6, shares.planes[::-1].copy())
    assert shares != unpacked


# --- comparison ---


def test_comparison_rows_and_expansion():
    report = comparison_report(3, DEMO_IMAGE, seed=5)
    assert report.baseline_expansion == 4
    assert report.quantum_expansion == 1
    assert report.rows["single-pixel parallel processing"] == ("Yes", "Yes")
    assert report.rows["pixel expansion"] == ("Yes", "No")
    assert report.rows["loss in resolution"] == ("Yes", "No")


def test_comparison_evidence():
    report = comparison_report(3, DEMO_IMAGE, seed=5)
    assert report.baseline_share_dims == (8, 2)
    assert report.baseline_decode_matches
    assert report.baseline_white_blocks_dirty
    assert report.quantum_recovered_equal
    assert report.quantum_share_entries_per_pixel == 1


def test_comparison_n2_expansion():
    report = comparison_report(2, DEMO_IMAGE, seed=5)
    assert report.baseline_expansion == 2


def test_comparison_of_an_all_black_image_has_no_white_blocks():
    report = comparison_report(3, from_pixel_list(2, 2, [1, 1, 1, 1]), seed=5)
    assert report.baseline_decode_matches
    assert not report.baseline_white_blocks_dirty


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16])
def test_numpy_integer_n_gives_the_plain_int_results(dtype):
    report = comparison_report(dtype(3), DEMO_IMAGE, 1)
    assert report == comparison_report(3, DEMO_IMAGE, 1)
    assert type(report.n) is int
    sets = build_nn_matrix_sets(dtype(5))
    np.testing.assert_array_equal(sets.c1_base, build_nn_matrix_sets(5).c1_base)
    stacked = classical_recover_image(report.baseline_shares)
    assert decode_stacked(stacked, dtype(3)) == decode_stacked(stacked, 3)
    with pytest.raises(ValueError, match="need at least 2 participants, got 1"):
        comparison_report(dtype(1), DEMO_IMAGE, 1)
    with pytest.raises(ValueError, match="over the cap of"):
        build_nn_matrix_sets(dtype(29))


# --- size bounds ---


@pytest.mark.parametrize("n", [24, 40, 64])
def test_matrix_sets_reject_n_over_the_subpixel_cap(n):
    with pytest.raises(ValueError, match=f"{n} x 2\\^{n - 1} x 1 subpixels"):
        build_nn_matrix_sets(n)


def test_share_image_rejects_expansion_over_the_subpixel_cap():
    # 4096x4096 shares (within the side cap) for each of 9 participants:
    # 9 x 2^24 subpixels, over MAX_BASELINE_SUBPIXELS = 2^27.
    image = BinaryImage(256, 256, np.zeros(256 * 256, dtype=np.uint8))
    with pytest.raises(ValueError, match="9 x 2\\^8 x 65536 subpixels"):
        classical_share_image(image, 9, seed=1)


def test_share_image_rejects_shares_over_the_side_cap():
    image = BinaryImage(4096, 1, np.zeros(4096, dtype=np.uint8))
    with pytest.raises(ValueError, match="would be 8192x1"):
        classical_share_image(image, 2, seed=1)


# --- the array-native image sharing contract ---


def share_matrices(shares, n):
    """Each pixel's (n, m) share matrix, read back out of the share grids."""
    bh, bw = block_shape(n)
    width, height = shares[0].width // bw, shares[0].height // bh
    blocks = [
        share.as_grid().reshape(height, bh, width, bw).transpose(0, 2, 1, 3)
        for share in shares
    ]
    return np.stack(blocks, axis=2).reshape(width * height, n, bh * bw)


def column_values(matrices):
    n = matrices.shape[1]
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.einsum("pjc,j->pc", matrices.astype(np.int64), weights)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_pixel_matrix_has_its_colour_base_columns(n):
    image = BinaryImage(7, 5, np.random.default_rng(n).integers(0, 2, size=35))
    sets = build_nn_matrix_sets(n)
    values = np.sort(column_values(share_matrices(classical_share_image(image, n, 9), n)))
    bases = [column_values(base[None])[0] for base in (sets.c0_base, sets.c1_base)]
    for l, color in enumerate(image.pixels):
        np.testing.assert_array_equal(values[l], np.sort(bases[color]))


def column_order_counts(image, seed):
    """How many pixels of the n=3 shares took each of the 4! column orders."""
    sets = build_nn_matrix_sets(3)
    bases = [column_values(base[None])[0] for base in (sets.c0_base, sets.c1_base)]
    values = column_values(share_matrices(classical_share_image(image, 3, seed), 3))
    orders = {order: i for i, order in enumerate(permutations(range(4)))}
    counts = np.zeros(24, dtype=np.int64)
    for l, color in enumerate(image.pixels):
        order = tuple(int(np.flatnonzero(bases[color] == v)[0]) for v in values[l])
        counts[orders[order]] += 1
    assert counts.sum() == image.pixel_count
    return counts


def test_column_orders_are_uniform_for_three_participants():
    # 4096 pixels over the 4! = 24 column orders (about 171 per order);
    # seed 2024 is fixed, so the test is deterministic.
    image = BinaryImage(64, 64, np.random.default_rng(0).integers(0, 2, size=4096))
    assert chisquare(column_order_counts(image, 2024)).pvalue > 0.001


class _FixedPermutation:
    """Stands in for a Generator whose next permutation is given."""

    def __init__(self, order):
        self.order = order

    def permutation(self, m):
        assert m == len(self.order)
        return self.order


def test_share_image_equals_the_per_pixel_definition():
    # Pixel l takes classical_share_pixel's column order from the stable
    # argsort of its sort keys (see stream_keys), laid out block by block.
    n, seed = 4, 31
    image = BinaryImage(6, 5, np.random.default_rng(3).integers(0, 2, size=30))
    sets = build_nn_matrix_sets(n)
    bh, bw = block_shape(n)
    keys = stream_keys(image, n, seed)
    expected = np.zeros((n, image.height * bh, image.width * bw), dtype=np.uint8)
    for l in range(1, image.pixel_count + 1):
        row, col = (l - 1) // image.width, (l - 1) % image.width
        order = np.argsort(keys[l - 1], kind="stable")
        matrix = classical_share_pixel(image.pixel(l), sets, _FixedPermutation(order))
        for j in range(n):
            expected[j, row * bh : (row + 1) * bh, col * bw : (col + 1) * bw] = (
                matrix[j].reshape(bh, bw)
            )
    shares = classical_share_image(image, n, seed)
    np.testing.assert_array_equal([share.as_grid() for share in shares], expected)


def test_share_image_is_byte_identical_under_a_seed():
    image = BinaryImage(9, 7, np.random.default_rng(4).integers(0, 2, size=63))
    first = classical_share_image(image, 5, seed=12)
    second = classical_share_image(image, 5, seed=12)
    assert [s.pixels.tobytes() for s in first] == [s.pixels.tobytes() for s in second]
    other = classical_share_image(image, 5, seed=13)
    assert [s.pixels.tobytes() for s in first] != [s.pixels.tobytes() for s in other]


@pytest.mark.parametrize("chunk", [1, 1 << 40])
def test_share_image_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    image = BinaryImage(9, 7, np.random.default_rng(5).integers(0, 2, size=63))
    expected = classical_share_image(image, 4, seed=8)
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", chunk)  # one row / all rows
    assert classical_share_image(image, 4, seed=8) == expected


def test_top_rows_crop_gets_the_top_rows_of_the_shares():
    image = BinaryImage(9, 7, np.random.default_rng(6).integers(0, 2, size=63))
    crop = BinaryImage(9, 3, image.pixels[:27])
    bh, _ = block_shape(4)
    full = classical_share_image(image, 4, seed=8)
    for whole, top in zip(full, classical_share_image(crop, 4, seed=8)):
        np.testing.assert_array_equal(top.as_grid(), whole.as_grid()[: 3 * bh])


def column_orders(keys):
    """``np.argsort(keys, axis=1, kind="stable")`` for m = 2^b columns,
    through ``_sort_rows`` with the column indices as values and the keys
    themselves as the tied rows' keys."""
    m = keys.shape[1]
    words = baseline._sort_rows(keys.copy(), np.arange(m, dtype=keys.dtype), keys.__getitem__)
    return words & keys.dtype.type(m - 1)


def test_column_orders_break_ties_like_a_stable_sort():
    keys = np.random.default_rng(7).integers(0, 3, size=(200, 8)).astype(np.uint64)
    keys[::2] = np.random.default_rng(8).permutation(8)  # rows without ties
    np.testing.assert_array_equal(
        column_orders(keys), np.argsort(keys, axis=1, kind="stable")
    )


def test_decode_stacked_does_not_build_the_bases():
    # d = 2^(n-1) needs neither (20, 2^19) base matrix, 20 MiB together.
    stacked = Transparencies(1024, 512, np.full((1, 512, 128), 255, dtype=np.uint8))
    tracemalloc.start()
    try:
        decoded = decode_stacked(stacked, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded == BinaryImage(1, 1, [1])
    assert peak < 4 << 20


@pytest.mark.parametrize("width,height", [(5, 2), (4, 3), (1, 1)])
def test_decode_stacked_refuses_an_image_of_partial_blocks(width, height):
    # n=3: each pixel was expanded into a 2x2 block of subpixels.
    planes = np.zeros((1, height, (width + 7) // 8), dtype=np.uint8)
    stacked = Transparencies(width, height, planes)
    with pytest.raises(FormatError, match=f"stacked image {width}x{height} is not a whole "
                       "number of 2x2 blocks"):
        decode_stacked(stacked, 3)


# --- one sort per chunk, contiguous bit planes ---


@pytest.mark.parametrize("m", [2, 8, 128, 1024])
def test_column_orders_sort_keys_that_share_a_prefix_like_a_stable_sort(m):
    # Keys that agree on every bit above the low log2(m) bits order by bits
    # the prefix sort overwrites with column indices; some tie outright.
    rng = np.random.default_rng(m)
    low = np.uint64(m - 1)
    keys = rng.integers(0, 1 << 64, size=(64, m), dtype=np.uint64)
    for row in keys[::2]:
        i, j = rng.choice(m, size=2, replace=False)
        row[j] = (row[i] & ~low) | rng.integers(0, m, dtype=np.uint64)
    keys[1::4, 0] = keys[1::4, -1]  # exact ties
    keys[3] = (keys[3, 0] & ~low) | rng.integers(0, m, size=m, dtype=np.uint64)
    np.testing.assert_array_equal(
        column_orders(keys), np.argsort(keys, axis=1, kind="stable")
    )


@pytest.mark.parametrize(
    "n, digest",
    [
        (3, "457fbbd072d37a1cf8a76b801cec7e3bd3efe935e43b54e92f7ffc00123c1b4a"),
        (8, "ae490310579bbb577a23c17189fdb8cd4a19a7624e2fa13dde3bb822dc3d4687"),
    ],
)
def test_share_image_bytes_are_pinned(n, digest):
    # Digests of the shares written from 32-bit keys, two per PCG64DXSM
    # word, with tied rows redrawn from their own Philox streams.
    image = BinaryImage(33, 17, np.random.default_rng(33).integers(0, 2, size=33 * 17))
    sha = hashlib.sha256()
    for share in classical_share_image(image, n, seed=2718):
        sha.update(share.pixels.tobytes())
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("rows", [None, 3])
def test_share_image_chunks_of_whole_rows_agree_with_one_chunk(monkeypatch, rows):
    n, width, height = 8, 100, 23
    m = 1 << (n - 1)
    pixels = np.random.default_rng(10).integers(0, 2, size=width * height)
    image = BinaryImage(width, height, pixels)
    if rows is None:
        assert baseline._CHUNK_SUBPIXELS // (width * m) < height  # several chunks
    else:
        monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", rows * width * m)
    chunked = classical_share_image(image, n, seed=77)
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", 1 << 40)
    assert chunked == classical_share_image(image, n, seed=77)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11])
@pytest.mark.parametrize("pixels", [1, 3])
def test_share_image_runs_within_a_row_agree_with_one_chunk(monkeypatch, n, pixels):
    # Chunks of one or three pixels' subpixels split every row into runs;
    # below n=6 a block is under a byte wide, so a run is rounded up to
    # the pixels that fill one.
    image = BinaryImage(9, 3, np.random.default_rng(n).integers(0, 2, size=27))
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", pixels << (n - 1))
    runs = classical_share_image(image, n, seed=31)
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", 1 << 40)
    assert runs == classical_share_image(image, n, seed=31)


def test_share_image_peak_is_its_output_plus_a_chunk():
    # 8 shares of 4096x2048 subpixels at one bit each are 8 MiB; everything
    # else is one chunk's keys, sort words, values and packed rows.
    pixels = np.random.default_rng(11).integers(0, 2, size=256 * 256)
    image = BinaryImage(256, 256, pixels)
    tracemalloc.start()
    try:
        shares = classical_share_image(image, 8, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = shares.planes.nbytes
    assert output == 8 << 20
    assert peak - output < 4 << 20


def test_share_stack_decode_peak_at_the_cap():
    # The 8 MiB of packed shares and their 1 MiB packed stack: 9.0 MiB
    # measured.  One byte per subpixel of the shares would be 64 MiB.
    pixels = np.random.default_rng(12).integers(0, 2, size=256 * 256)
    image = BinaryImage(256, 256, pixels)
    tracemalloc.start()
    try:
        decoded = decode_stacked(classical_recover_image(classical_share_image(image, 8, 3)), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded == image
    assert peak < 20 << 20


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("width", [1, 3, 5, 7])
def test_share_planes_are_the_p4_rasters(n, width):
    # Share widths 2 * width (n=2, 3) are not whole bytes, so rows carry pad bits.
    image = BinaryImage(width, 3, np.random.default_rng(width).integers(0, 2, size=width * 3))
    shares = classical_share_image(image, n, seed=6)
    for j, share in enumerate(shares):
        header = f"P4\n{shares.width} {shares.height}\n".encode("ascii")
        assert write_pbm(share, "p4") == header + shares.planes[j].tobytes()


# --- white values in the sort words, tied rows redrawn ---


def per_pixel_shares(image, n, keys):
    """Share grids from classical_share_pixel, pixel l ordered by keys[l-1]."""
    sets = build_nn_matrix_sets(n)
    bh, bw = block_shape(n)
    grids = np.zeros((n, image.height * bh, image.width * bw), dtype=np.uint8)
    for l in range(1, image.pixel_count + 1):
        row, col = (l - 1) // image.width, (l - 1) % image.width
        order = np.argsort(keys[l - 1], kind="stable")
        matrix = classical_share_pixel(image.pixel(l), sets, _FixedPermutation(order))
        grids[:, row * bh : (row + 1) * bh, col * bw : (col + 1) * bw] = matrix.reshape(
            n, bh, bw
        )
    return grids


#: High 64 bits of the Philox key of a tied pixel's own stream.
TIE_KEY_TAG = 2 << 64

#: The share stream's bit generator, kept for helpers that patch it.
PCG64DXSM = np.random.PCG64DXSM


def key_halves(words, m):
    """32-bit keys, m a row: each word's low half, then its high half."""
    halves = [[word & 0xFFFF_FFFF, word >> 32] for word in words.tolist()]
    return np.array(halves, dtype=np.uint64).reshape(-1, m)


def prefixes_tie(row, n):
    """Whether two of a row's keys agree above bit n."""
    return len(set((row >> np.uint64(n)).tolist())) < len(row)


def pixel_keys(n, seed, l):
    """Pixel l's sort keys.  Up to n=9 they are the 32-bit halves of words
    (l-1)*m/2 .. l*m/2-1 of the stream seeded by the seed, above n=9 its
    raw words (l-1)*m .. l*m-1, unless two of them agree above bit n:
    then they are m raw words of pixel l's own Philox stream."""
    m = 1 << (n - 1)
    words = m if n > 9 else m // 2
    raw = np.random.PCG64DXSM(seed).advance((l - 1) * words).random_raw(words)
    keys = raw if n > 9 else key_halves(raw, m)[0]
    if prefixes_tie(keys, n):
        keys = np.random.Philox(key=TIE_KEY_TAG | seed, counter=l << 128).random_raw(m)
    return keys


def stream_keys(image, n, seed):
    """Each pixel's sort keys (``pixel_keys``), one row per pixel."""
    return np.stack([pixel_keys(n, seed, l) for l in range(1, image.pixel_count + 1)])


def test_the_tie_streams_are_not_the_sampled_backends():
    assert baseline._TIE_KEY_TAG == TIE_KEY_TAG != protocol._SAMPLED_KEY_TAG


@pytest.mark.parametrize("width", [1, 3, 7])
@pytest.mark.parametrize("one_row_chunks", [False, True])
def test_two_participant_shares_of_an_odd_width_equal_the_per_pixel_definition(
    monkeypatch, width, one_row_chunks
):
    # m = 2 keys are one word a pixel, so every other image row, and with
    # one-row chunks every other chunk, starts at an odd word of the stream.
    pixels = np.random.default_rng(width).integers(0, 2, size=width * 5)
    image = BinaryImage(width, 5, pixels)
    if one_row_chunks:
        monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", 2 * width)
    shares = classical_share_image(image, 2, seed=19)
    expected = per_pixel_shares(image, 2, stream_keys(image, 2, 19))
    np.testing.assert_array_equal([share.as_grid() for share in shares], expected)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_sort_rows_puts_the_white_values_in_stable_key_order(n):
    # The sort words carry the n-bit white values, not column indices, so
    # keys agreeing above bit n are ties of the prefix sort.
    m = 1 << (n - 1)
    white = baseline._white_columns(n)
    low = np.uint64((1 << n) - 1)
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 1 << 64, size=(64, m), dtype=np.uint64)
    for row in keys[::2]:
        i, j = rng.choice(m, size=2, replace=False)
        row[j] = (row[i] & ~low) | rng.integers(0, 1 << n, dtype=np.uint64)
    keys[1::4, 0] = keys[1::4, -1]  # exact ties
    words = baseline._sort_rows(keys.copy(), white, keys.__getitem__)
    np.testing.assert_array_equal(
        words & low, white[np.argsort(keys, axis=1, kind="stable")]
    )


class _CoarsePCG:
    """PCG64DXSM whose words keep only the top 3 bits and the lowest bit
    of each 32-bit half.

    Patched in as ``np.random.PCG64DXSM``, it is the share stream: most
    rows of its keys, 32-bit halves or whole 64-bit words, tie above the
    white values' bits, and many tie outright, so the share image redraws
    them.  The tied pixels' own Philox streams are left whole.
    """

    MASK = np.uint64(0xE000_0001_E000_0001)

    def __init__(self, seed):
        self.stream = PCG64DXSM(seed)

    def advance(self, delta):
        self.stream.advance(delta)
        return self

    def random_raw(self, size):
        return self.stream.random_raw(size) & self.MASK


@pytest.mark.parametrize("n, width", [(2, 7), (3, 5), (4, 6), (10, 2)])
def test_tied_rows_drawn_again_match_the_per_pixel_definition(monkeypatch, n, width):
    # At n=10 the 64-bit keys keep 4 bits above bit n, so every row ties.
    pixels = np.random.default_rng(n).integers(0, 2, size=width * 5)
    image = BinaryImage(width, 5, pixels)
    monkeypatch.setattr(np.random, "PCG64DXSM", _CoarsePCG)
    keys = stream_keys(image, n, 23)
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", 2 * width << (n - 1))
    shares = classical_share_image(image, n, seed=23)
    np.testing.assert_array_equal(
        [share.as_grid() for share in shares], per_pixel_shares(image, n, keys)
    )


def test_tied_rows_are_redrawn_from_their_own_streams(monkeypatch):
    # At n=4 the coarse keys' prefixes are their top 3 bits, 8 values over
    # 8 columns, so nearly every row ties.  The seed's stream is opened
    # once, then each tied pixel l's own Philox stream, in pixel order.
    image = BinaryImage(6, 5, np.random.default_rng(4).integers(0, 2, size=30))
    opened = []
    philox = np.random.Philox

    class Recording(_CoarsePCG):
        def __init__(self, seed):
            opened.append(("PCG64DXSM", seed))
            super().__init__(seed)

    def recording_philox(key, counter):
        opened.append(("Philox", key, counter))
        return philox(key=key, counter=counter)

    monkeypatch.setattr(np.random, "PCG64DXSM", Recording)
    monkeypatch.setattr(np.random, "Philox", recording_philox)
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", 2 * 6 << 3)
    classical_share_image(image, 4, seed=23)
    keys = key_halves(PCG64DXSM(23).random_raw(30 * 4) & _CoarsePCG.MASK, 8)
    tied = [l for l in range(1, 31) if prefixes_tie(keys[l - 1], 4)]
    assert len(tied) > 20
    assert opened == [("PCG64DXSM", 23)] + [
        ("Philox", TIE_KEY_TAG | 23, l << 128) for l in tied
    ]


def test_column_orders_stay_uniform_when_nearly_every_row_ties(monkeypatch):
    # Keys that keep only their top 2 bits tie above bit 3 in all but
    # 4!/4^4, about 9%, of the rows.  Sorting a tied row by those keys
    # instead of redrawing it would favour the orders that keep tied
    # columns in place.
    monkeypatch.setattr(np.random, "PCG64DXSM", _CoarsePCG)
    monkeypatch.setattr(_CoarsePCG, "MASK", np.uint64(0xC000_0000_C000_0000))
    image = BinaryImage(96, 96, np.random.default_rng(1).integers(0, 2, size=96 * 96))
    keys = key_halves(np.random.PCG64DXSM(77).random_raw(96 * 96 * 2), 4)
    assert sum(prefixes_tie(row, 3) for row in keys) > 0.85 * 96 * 96
    assert chisquare(column_order_counts(image, 77)).pvalue > 0.001


@pytest.mark.parametrize("n", [3, 4])
def test_tied_rows_do_not_depend_on_chunking_or_cropping(monkeypatch, n):
    monkeypatch.setattr(np.random, "PCG64DXSM", _CoarsePCG)
    image = BinaryImage(9, 7, np.random.default_rng(n).integers(0, 2, size=63))
    full = classical_share_image(image, n, seed=8)
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", 1)  # one image row a chunk
    assert classical_share_image(image, n, seed=8) == full
    crop = BinaryImage(9, 3, image.pixels[:27])
    bh, _ = block_shape(n)
    for whole, top in zip(full, classical_share_image(crop, n, seed=8)):
        np.testing.assert_array_equal(top.as_grid(), whole.as_grid()[: 3 * bh])


def test_tied_rows_take_a_numpy_integer_seed_as_its_int(monkeypatch):
    # The tie streams' key is the seed with a tag above its 64 bits.
    monkeypatch.setattr(np.random, "PCG64DXSM", _CoarsePCG)
    image = BinaryImage(6, 5, np.random.default_rng(7).integers(0, 2, size=30))
    expected = classical_share_image(image, 4, seed=23)
    assert classical_share_image(image, 4, seed=np.uint64(23)) == expected


def test_sort_rows_sorts_in_place_and_asks_once_for_the_tied_rows_keys():
    # At n=8 the 32-bit words keep key bits 8..31 above the white values.
    # Even rows' keys all agree there and descend with the column, and
    # rows 1 mod 4 hold one exact tie: those rows take the order of their
    # tie keys, the others that of their own keys.
    n, m = 8, 128
    white = baseline._white_columns(n)
    rng = np.random.default_rng(40)
    keys = rng.integers(0, 1 << 32, size=(32, m), dtype=np.uint32)
    keys[::2] = (keys[::2, :1] & ~np.uint32(0xFF)) | np.arange(m - 1, -1, -1, dtype=np.uint32)
    keys[1::4, 5] = keys[1::4, 9]
    tie = rng.integers(0, 1 << 64, size=(32, m), dtype=np.uint64)
    asked = []

    def tie_keys(rows):
        asked.append(rows.tolist())
        return tie[rows]

    words = keys.copy()
    assert baseline._sort_rows(words, white, tie_keys) is words
    tied = sorted([*range(0, 32, 2), *range(1, 32, 4)])
    assert asked == [tied]
    expected = white[np.argsort(keys, axis=1, kind="stable")]
    expected[tied] = white[np.argsort(tie[tied], axis=1, kind="stable")]
    np.testing.assert_array_equal(words & np.uint32(0xFF), expected)


@pytest.mark.parametrize(
    "n, side, digest",
    [
        (12, 8, "5ef5263abaadb9603a40028aa6dcb2b27223eb0db0d1544e65b2b0649f15d993"),
        (16, 4, "cb89e518636faeeb184fc95a3259b372b9e5fcd2b19ac9a8d45eaad56c0e8dea"),
    ],
)
def test_share_image_bytes_are_pinned_at_large_n(n, side, digest):
    # Digests of the shares written from 64-bit PCG64DXSM words.
    pixels = np.random.default_rng(n).integers(0, 2, size=side * side)
    image = BinaryImage(side, side, pixels)
    sha = hashlib.sha256()
    for share in classical_share_image(image, n, seed=2718):
        sha.update(share.pixels.tobytes())
    assert sha.hexdigest() == digest


def random_stack(n, width, height, seed):
    """A one-plane stack of width x height blocks at n, packed, and its
    unpacked grid.  Each block is all white, all black, all black but one
    subpixel (a white pixel's stack), all white but one, or random."""
    bh, bw = block_shape(n)
    m = bh * bw
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 5, size=height * width)
    blocks = rng.integers(0, 2, size=(height * width, m), dtype=np.uint8)
    blocks[kinds == 0] = 0
    blocks[kinds == 1] = 1
    for kind, odd in ((2, 0), (3, 1)):
        blocks[kinds == kind] = 1 - odd
        blocks[kinds == kind, rng.integers(0, m)] = odd
    grid = blocks.reshape(height, width, bh, bw).transpose(0, 2, 1, 3).reshape(height * bh, -1)
    stack = Transparencies(width * bw, height * bh, np.packbits(grid, axis=1)[None])
    return stack, grid


def block_counts(grid, n):
    """Black subpixels per block of an unpacked stacked grid, counted block
    by block."""
    bh, bw = block_shape(n)
    height, width = grid.shape[0] // bh, grid.shape[1] // bw
    return np.array([
        [grid[r * bh : (r + 1) * bh, c * bw : (c + 1) * bw].sum() for c in range(width)]
        for r in range(height)
    ])


@pytest.mark.parametrize("n", range(2, 13))
def test_decode_stacked_equals_a_per_block_count_threshold(n):
    # Up to n=5 a block is 2 or 4 subpixels wide, under a byte, and odd
    # widths leave pad bits in every packed row; above, a block is whole
    # bytes.
    m = 1 << (n - 1)
    for width in (1, 3, 4, 7):
        for height in (1, 2, 3):
            stack, grid = random_stack(n, width, height, seed=n * 100 + width * 10 + height)
            decoded = decode_stacked(stack, n)
            expected = (block_counts(grid, n) >= m).astype(np.uint8)
            assert (decoded.width, decoded.height) == (width, height)
            np.testing.assert_array_equal(decoded.as_grid(), expected)


@pytest.mark.parametrize("n", range(2, 13))
def test_dirty_flag_is_a_black_subpixel_in_a_white_pixels_block(n):
    for width in (1, 3, 4, 7):
        stack, grid = random_stack(n, width, 3, seed=n * 10 + width)
        np.testing.assert_array_equal(
            baseline._fold_blocks(stack, n, np.bitwise_or), block_counts(grid, n) > 0
        )


@pytest.mark.parametrize("n", [2, 5, 8])
def test_comparison_report_sees_black_subpixels_in_white_blocks_only(n):
    # A stacked white pixel keeps m - 1 black subpixels, a black one none
    # white, so only an image with a white pixel is dirty.
    black = BinaryImage(3, 2, np.ones(6, dtype=np.uint8))
    speck = BinaryImage(3, 2, np.array([1, 1, 1, 1, 0, 1], dtype=np.uint8))
    assert not comparison_report(n, black, 4).baseline_white_blocks_dirty
    assert comparison_report(n, speck, 4).baseline_white_blocks_dirty


def test_decode_stacked_refuses_more_than_one_plane():
    shares = classical_share_image(DEMO_IMAGE, 3, seed=5)
    with pytest.raises(ValueError, match="a stacked image is one plane, got 3"):
        decode_stacked(shares, 3)


def test_stack_and_decode_never_unpack_the_stack():
    # The stack of 8 shares of 4096x2048 subpixels is one 1 MiB packed
    # plane; unpacked, one byte per subpixel, it would be 8 MiB.  Decoding
    # adds the 128 KiB of each block's ANDed rows and their 512 KiB of
    # bits: 1.57 MiB measured.
    image = BinaryImage(256, 256, np.random.default_rng(13).integers(0, 2, size=256 * 256))
    shares = classical_share_image(image, 8, seed=3)
    tracemalloc.start()
    try:
        stacked = classical_recover_image(shares)
        decoded = decode_stacked(stacked, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded == image
    assert stacked.planes.nbytes == 1 << 20
    assert peak < 2 << 20


# --- 32-bit sort keys up to n=9 ---


@pytest.mark.parametrize("n, dtype", [(2, "<u4"), (9, "<u4"), (10, "<u8")])
def test_sort_keys_are_32_bit_while_prefix_ties_stay_rare(n, dtype):
    # C(m, 2) * 2^(n-32), the expected prefix ties of a row, is about 2^-8
    # at n=9 and 2^-5 at n=10.
    assert baseline._key_dtype(n) == np.dtype(dtype)


@pytest.mark.parametrize("n", [9, 10])
def test_shares_on_both_sides_of_the_word_width_switch_equal_the_per_pixel_definition(n):
    image = BinaryImage(3, 2, np.random.default_rng(n).integers(0, 2, size=6))
    shares = classical_share_image(image, n, seed=97)
    np.testing.assert_array_equal(
        [share.as_grid() for share in shares],
        per_pixel_shares(image, n, stream_keys(image, n, 97)),
    )


def test_a_pixel_past_the_first_chunk_equals_its_per_pixel_definition():
    # At n=8 a chunk is 8 rows of 64 pixels, so pixel l in the last row
    # takes its keys from PCG64DXSM(seed).advance((l - 1) * 64), far past
    # the first chunk's 32,768 words.
    n, side, seed = 8, 64, 41
    image = BinaryImage(side, side, np.random.default_rng(64).integers(0, 2, size=side * side))
    assert baseline._CHUNK_SUBPIXELS // (side << (n - 1)) == 8
    matrices = share_matrices(classical_share_image(image, n, seed), n)
    sets = build_nn_matrix_sets(n)
    for l in (side * (side - 1) + 1, side * side - 20, side * side):
        order = np.argsort(pixel_keys(n, seed, l), kind="stable")
        expected = classical_share_pixel(image.pixel(l), sets, _FixedPermutation(order))
        np.testing.assert_array_equal(matrices[l - 1], expected)


# --- the last plane is the XOR of the others and the colour ---


@pytest.mark.parametrize("n", range(2, 13))
def test_the_xor_of_all_planes_is_the_secret_in_blocks(n):
    # A white column has even parity and a black one odd, so the XOR of a
    # pixel's n share blocks is its colour over the whole block.  Widths
    # whose shares are not whole bytes check that every pad bit stays 0.
    bh, bw = block_shape(n)
    for width in range(1, 10):
        image = BinaryImage(width, 2, np.random.default_rng(width).integers(0, 2, size=2 * width))
        shares = classical_share_image(image, n, seed=n)
        blocks = np.repeat(np.repeat(image.as_grid(), bh, axis=0), bw, axis=1)
        np.testing.assert_array_equal(
            np.bitwise_xor.reduce(shares.planes, axis=0), np.packbits(blocks, axis=1)
        )


def test_sort_rows_finds_ties_in_a_rows_first_and_last_pairs_only():
    # n=4: the words' low 4 bits take the white values, so keys tie when
    # they agree above bit 4.  Sorted, row 0's first two prefixes agree and
    # row 1's last two do; rows 2 and 3 have distinct prefixes, though row
    # 2's last equals row 3's first.
    n, m = 4, 8
    white = baseline._white_columns(n)
    prefixes = np.array([
        [1, 1, 2, 3, 4, 5, 6, 7],
        [10, 11, 12, 13, 14, 15, 16, 16],
        [30, 31, 32, 33, 34, 35, 36, 37],
        [37, 38, 39, 40, 41, 42, 43, 44],
    ], dtype=np.uint32)
    rng = np.random.default_rng(44)
    keys = (rng.permuted(prefixes, axis=1) << 4) | rng.integers(0, 16, size=(4, m), dtype=np.uint32)
    tie = rng.integers(0, 1 << 64, size=(4, m), dtype=np.uint64)
    asked = []

    def tie_keys(rows):
        asked.append(rows.tolist())
        return tie[rows]

    words = baseline._sort_rows(keys.copy(), white, tie_keys)
    assert asked == [[0, 1]]
    expected = white[np.argsort(keys, axis=1, kind="stable")]
    expected[:2] = white[np.argsort(tie[:2], axis=1, kind="stable")]
    np.testing.assert_array_equal(words & np.uint32(0xF), expected)


def test_share_image_peak_at_the_widest_chunk():
    # At n=16 one row of a 16x16 image is 2^19 subpixels, the widest row
    # the side cap allows up to n=16.  It is drawn in runs of two pixels,
    # 2^16 subpixels, and peaks 1.3 MiB above the output.  Whole-row
    # chunks took 11.3 MiB: the row's 64-bit keys and their tie-check gaps
    # (4 MiB each), and the last chunk's narrowed values, grid and mask
    # buffer (1 MiB each).
    image = BinaryImage(16, 16, np.random.default_rng(16).integers(0, 2, size=256))
    tracemalloc.start()
    try:
        shares = classical_share_image(image, 16, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = shares.planes.nbytes
    assert output == 16 << 20
    assert peak - output < 15 << 20


def test_share_image_frees_a_chunks_buffers_before_the_next_draw(monkeypatch):
    # One-row chunks of a 16x16 image at n=16, as before rows were split:
    # the 4 MiB of keys and the 4 MiB of tie-check gaps, plus 0.3 MiB, is
    # 8.3 MiB measured.  The last chunk's narrowed values, grid and mask
    # buffer, 1 MiB each, kept into the next chunk's draw would add 3 MiB.
    monkeypatch.setattr(baseline, "_CHUNK_SUBPIXELS", 1 << 19)
    image = BinaryImage(16, 16, np.random.default_rng(16).integers(0, 2, size=256))
    tracemalloc.start()
    try:
        shares = classical_share_image(image, 16, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - shares.planes.nbytes < 9 << 20


def test_share_image_splits_a_row_wider_than_a_chunk():
    # At n=21 one pixel is 2^20 subpixels, so a chunk is one pixel of the
    # 4x1 image, not its whole row of 2^22.  Above the 10.5 MiB of planes
    # are the white base (4 MiB), the pixel's keys and their tie-check gaps
    # (8 MiB each): 30.5 MiB measured.  A 64-bit copy of the white base on
    # every call took 38.5 MiB, and whole-row chunks 86.5 MiB.
    image = BinaryImage(4, 1, np.array([0, 1, 1, 0], dtype=np.uint8))
    tracemalloc.start()
    try:
        shares = classical_share_image(image, 21, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shares.planes.nbytes == 21 << 19
    assert peak < 32 << 20
