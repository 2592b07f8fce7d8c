import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from qvss import baseline
from qvss.baseline import (
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
from qvss.image_io import BinaryImage, from_pixel_list

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
    assert int(stacked.pixels.sum()) == 1  # weight 1 < d=2


def test_white_pixel_block_is_not_all_white():
    # the visible cost of pixel expansion: white blocks keep black specks
    image = from_pixel_list(1, 1, [0])
    stacked = classical_recover_image(classical_share_image(image, 3, seed=2))
    assert stacked.pixels.any()
    assert decode_stacked(stacked, 3) == image


def test_recover_rejects_mismatched_share_dims():
    image = from_pixel_list(2, 1, [0, 1])
    shares = classical_share_image(image, 2, seed=3)
    other = classical_share_image(from_pixel_list(1, 1, [0]), 2, seed=3)
    with pytest.raises(FormatError):
        classical_recover_image([shares[0], other[0]])


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


def test_column_orders_are_uniform_for_three_participants():
    # 4096 pixels over the 4! = 24 column orders (about 171 per order);
    # seed 2024 is fixed, so the test is deterministic.
    image = BinaryImage(64, 64, np.random.default_rng(0).integers(0, 2, size=4096))
    sets = build_nn_matrix_sets(3)
    bases = [column_values(base[None])[0] for base in (sets.c0_base, sets.c1_base)]
    values = column_values(share_matrices(classical_share_image(image, 3, 2024), 3))
    orders = {order: i for i, order in enumerate(permutations(range(4)))}
    counts = np.zeros(24, dtype=np.int64)
    for l, color in enumerate(image.pixels):
        order = tuple(int(np.flatnonzero(bases[color] == v)[0]) for v in values[l])
        counts[orders[order]] += 1
    assert counts.sum() == 4096
    assert chisquare(counts).pvalue > 0.001


class _FixedPermutation:
    """Stands in for a Generator whose next permutation is given."""

    def __init__(self, order):
        self.order = order

    def permutation(self, m):
        assert m == len(self.order)
        return self.order


def test_share_image_equals_the_per_pixel_definition():
    # Pixel l takes classical_share_pixel's column order from the stable
    # argsort of raw Philox words (l-1)*m .. l*m-1, laid out block by block.
    n, seed = 4, 31
    image = BinaryImage(6, 5, np.random.default_rng(3).integers(0, 2, size=30))
    sets = build_nn_matrix_sets(n)
    bh, bw = block_shape(n)
    keys = np.random.Philox(key=seed).random_raw(image.pixel_count * sets.m)
    keys = keys.reshape(image.pixel_count, sets.m)
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


def test_column_orders_break_ties_like_a_stable_sort():
    keys = np.random.default_rng(7).integers(0, 3, size=(200, 8)).astype(np.uint64)
    keys[::2] = np.random.default_rng(8).permutation(8)  # rows without ties
    np.testing.assert_array_equal(
        baseline._column_orders(keys), np.argsort(keys, axis=1, kind="stable")
    )


def test_decode_stacked_does_not_build_the_bases():
    # d = 2^(n-1) needs neither (20, 2^19) base matrix, 20 MiB together.
    stacked = BinaryImage(1024, 512, np.ones(1024 * 512, dtype=np.uint8))
    tracemalloc.start()
    try:
        decoded = decode_stacked(stacked, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded == BinaryImage(1, 1, [1])
    assert peak < 4 << 20
