import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvss.errors import FormatError
from qvss.image_io import (
    MAX_DIMENSION,
    BinaryImage,
    from_pixel_list,
    read_pbm,
    write_pbm,
)


def random_image(width, height, seed):
    rng = np.random.default_rng(seed)
    return BinaryImage(width, height, rng.integers(0, 2, size=width * height))


def test_from_pixel_list_demo_image():
    image = from_pixel_list(4, 1, [0, 1, 1, 0])
    assert image.pixel(1) == 0
    assert image.pixel(2) == 1
    assert image.pixel(3) == 1
    assert image.pixel(4) == 0


def test_from_pixel_list_length_mismatch():
    with pytest.raises(ValueError):
        from_pixel_list(2, 2, [0, 1, 1])


def test_pixel_index_mapping():
    image = from_pixel_list(3, 2, [0, 1, 0, 1, 1, 0])
    for l in range(1, 7):
        row, col = (l - 1) // 3, (l - 1) % 3
        assert image.pixel(l) == image.as_grid()[row, col]


def test_image_rejects_nonbinary_pixels():
    with pytest.raises(FormatError):
        BinaryImage(2, 1, np.array([0, 2]))


def test_image_rejects_oversize():
    with pytest.raises(ValueError):
        BinaryImage(5000, 1, np.zeros(5000, dtype=np.uint8))


# --- P1 ---


def test_read_plain_p1():
    image = read_pbm(b"P1 2 2 0 1 1 0")
    assert image == from_pixel_list(2, 2, [0, 1, 1, 0])


def test_read_p1_with_comments_and_packed_digits():
    data = b"P1\n# comment line\n2 2\n01\n10\n"
    assert read_pbm(data) == from_pixel_list(2, 2, [0, 1, 1, 0])


def test_write_p1_golden_bytes():
    assert write_pbm(from_pixel_list(1, 1, [1]), "p1") == b"P1\n1 1\n1\n"
    assert write_pbm(from_pixel_list(4, 1, [0, 1, 1, 0]), "p1") == b"P1\n4 1\n0 1 1 0\n"


# --- P4 ---


def test_p4_equals_p1_for_same_image():
    image = from_pixel_list(4, 1, [0, 1, 1, 0])
    assert read_pbm(write_pbm(image, "p4")) == read_pbm(write_pbm(image, "p1"))


def test_p4_rows_are_byte_padded():
    # 10 columns -> 2 bytes per row
    image = random_image(10, 3, seed=1)
    data = write_pbm(image, "p4")
    header_end = data.index(b"\n", data.index(b"\n") + 1) + 1
    assert len(data) - header_end == 2 * 3
    assert read_pbm(data) == image


# --- errors ---


def test_grayscale_magic_rejected():
    with pytest.raises(FormatError):
        read_pbm(b"P5 2 2 255 aaaa")


def test_bad_magic_rejected():
    with pytest.raises(FormatError):
        read_pbm(b"BM000")


def test_dimension_overflow_rejected():
    with pytest.raises(FormatError):
        read_pbm(b"P1 99999 1 0")


def test_truncated_p1_names_offset():
    with pytest.raises(FormatError) as err:
        read_pbm(b"P1 2 2 0 1")
    assert "byte" in str(err.value)


def test_truncated_p4_names_offset():
    with pytest.raises(FormatError) as err:
        read_pbm(b"P4\n16 2\n\x00")
    assert "byte" in str(err.value)


def test_invalid_p1_pixel_byte():
    with pytest.raises(FormatError):
        read_pbm(b"P1 2 1 0 7")


def test_unknown_write_variant():
    with pytest.raises(ValueError):
        write_pbm(from_pixel_list(1, 1, [0]), "p9")


# --- round trips ---


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(["p1", "p4"]),
)
def test_round_trip_random_images(width, height, seed, variant):
    image = random_image(width, height, seed)
    assert read_pbm(write_pbm(image, variant)) == image


def test_round_trip_large_image():
    image = random_image(256, 256, seed=9)
    assert read_pbm(write_pbm(image, "p4")) == image
    assert read_pbm(write_pbm(image, "p1")) == image


# --- the array-native codec against the byte loop it replaced ---
#
# The reference reader and P1 writer below are the char-by-char versions
# the array code replaced.  They define the results and error messages the
# array code must keep.

_REF_WHITESPACE = frozenset(b" \t\r\n\x0b\x0c")


def _ref_skip_space(data, pos):
    while pos < len(data):
        if data[pos] in _REF_WHITESPACE:
            pos += 1
        elif data[pos] == 0x23:  # '#': comment runs to end of line
            while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    return pos


def _ref_next_token(data, pos, what):
    pos = _ref_skip_space(data, pos)
    if pos >= len(data):
        raise FormatError(f"truncated input: expected {what} at byte {pos}")
    start = pos
    while pos < len(data) and data[pos] not in _REF_WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


def _ref_parse_dimension(data, pos, what):
    token, newpos = _ref_next_token(data, pos, what)
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"bad {what} {token!r} at byte {pos}") from None
    if value < 1 or value > MAX_DIMENSION:
        raise FormatError(f"{what} {value} at byte {pos} outside 1..{MAX_DIMENSION}")
    return value, newpos


def reference_read_pbm(data):
    magic, pos = _ref_next_token(data, 0, "magic")
    if magic not in (b"P1", b"P4"):
        raise FormatError(
            f"unsupported magic {magic!r} at byte 0: only bilevel P1/P4 accepted"
        )
    width, pos = _ref_parse_dimension(data, pos, "width")
    height, pos = _ref_parse_dimension(data, pos, "height")

    if magic == b"P1":
        bits = np.empty(width * height, dtype=np.uint8)
        count = 0
        pos = _ref_skip_space(data, pos)
        while count < width * height:
            if pos >= len(data):
                raise FormatError(
                    f"truncated pixel data at byte {pos}: got {count} of "
                    f"{width * height} pixels"
                )
            c = data[pos]
            if c == 0x30:
                bits[count] = 0
            elif c == 0x31:
                bits[count] = 1
            else:
                raise FormatError(f"invalid pixel byte {bytes([c])!r} at byte {pos}")
            count += 1
            pos = _ref_skip_space(data, pos + 1)
        return BinaryImage(width, height, bits)

    if pos >= len(data) or data[pos] not in _REF_WHITESPACE:
        raise FormatError(f"expected whitespace before raster at byte {pos}")
    pos += 1
    row_bytes = (width + 7) // 8
    needed = row_bytes * height
    if len(data) - pos < needed:
        raise FormatError(
            f"truncated raster at byte {len(data)}: need {needed} bytes from "
            f"byte {pos}"
        )
    raster = np.frombuffer(data, dtype=np.uint8, count=needed, offset=pos)
    rows = np.unpackbits(raster.reshape(height, row_bytes), axis=1)[:, :width]
    return BinaryImage(width, height, rows.reshape(-1))


def reference_write_p1(image):
    body = "".join(" ".join(str(b) for b in row) + "\n" for row in image.as_grid())
    return f"P1\n{image.width} {image.height}\n".encode("ascii") + body.encode("ascii")


def outcome(read, data):
    """The image a reader returns, or the message of its FormatError."""
    try:
        image = read(data)
    except FormatError as exc:
        return str(exc)
    return image.width, image.height, image.pixels.tobytes()


PBM_ALPHABET = b"01 \t\r\n\x0b\x0c#P4x9"
# What may stand between two P1 tokens: whitespace of every kind, CR-only
# line ends, and comments, including one straight after a pixel.
P1_SEPARATORS = ["", " ", "\n", "\r", "\r\n", "\t", "\x0b", "\x0c", "#c\n", "#\r", " # x 1\n"]


@st.composite
def styled_p1(draw):
    """A valid P1 file with separators drawn from ``P1_SEPARATORS``."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    sep = st.sampled_from(P1_SEPARATORS)
    header = ["P1", draw(sep.filter(bool)), str(width), draw(sep.filter(bool)), str(height)]
    # A digit must not run into the height token, so the first gap is not empty.
    pixels = [draw(sep.filter(bool))] + [
        draw(st.sampled_from("01")) + draw(sep) for _ in range(width * height)
    ]
    return ("".join(header) + "".join(pixels)).encode("ascii")


@st.composite
def p4_file(draw):
    """A valid P4 file; its raster bytes include '#', CR and LF."""
    width, height = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    size = (width + 7) // 8 * height
    raster = draw(st.binary(min_size=size, max_size=size) | st.just(b"#\r\n" * size))
    return b"P4\n#c\n%d %d\n" % (width, height) + raster[:size]


@st.composite
def damaged(draw, files):
    """A file with bytes overwritten, inserted and deleted, then cut."""
    data = bytearray(draw(files))
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(list(PBM_ALPHABET)) | st.integers(0, 255))
        action = draw(st.sampled_from(["overwrite", "insert", "delete"]))
        if action == "insert" or position == len(data):
            data.insert(position, byte)
        elif action == "overwrite":
            data[position] = byte
        else:
            del data[position]
    return bytes(data[: draw(st.integers(0, len(data)))])


alphabet_bytes = st.lists(st.sampled_from(list(PBM_ALPHABET)), max_size=40).map(bytes)
PBM_INPUTS = st.one_of(
    alphabet_bytes,
    st.tuples(st.sampled_from([b"P1", b"P4", b"P1 2 2", b"P4 8 1"]), alphabet_bytes).map(
        b"".join
    ),
    styled_p1(),
    p4_file(),
    damaged(styled_p1()),
    damaged(p4_file()),
)


@settings(max_examples=600, deadline=None)
@given(PBM_INPUTS)
@example(b"P1 2 2 0#c\n1#\r1 0")  # comment straight after a pixel
@example(b"P1\r2\r1\r0\r1\r")  # CR-only line ends
@example(b"P1\x0b2\x0c1\x0b0\x0c1")  # VT and FF
@example(b"P4 8 2\n##")  # '#' bytes inside a P4 raster
@example(b"P4 8 1#\n\xff")  # comment straight after the P4 height
@example(b"P1 2 1 0 1 7 # trailing bytes are ignored")
@example(b"P1 2 1 0 7 #")
def test_reader_matches_the_byte_loop(data):
    assert outcome(read_pbm, data) == outcome(reference_read_pbm, data)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P1 2 1 0 7", "invalid pixel byte b'7' at byte 9"),
        (b"P1\n# c\n2 1\n0#z\n\x0c9", "invalid pixel byte b'9' at byte 16"),
        (b"P1 2 2 0 1", "truncated pixel data at byte 10: got 2 of 4 pixels"),
        (b"P1 2 2 0 1 # end", "truncated pixel data at byte 16: got 2 of 4 pixels"),
        (b"P4 8 1#\n\xff", "expected whitespace before raster at byte 6"),
    ],
)
def test_pbm_error_messages_give_file_offsets(data, message):
    with pytest.raises(FormatError) as err:
        read_pbm(data)
    assert str(err.value) == message


def test_p1_read_peaks_under_three_times_the_file_size():
    data = write_pbm(random_image(1024, 1024, seed=4), "p1")
    tracemalloc.start()
    try:
        read_pbm(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(data)


@pytest.mark.parametrize("width", [1, 2, 7, 1024])
def test_p1_write_matches_the_joined_strings(width):
    image = random_image(width, 3, seed=width)
    assert write_pbm(image, "p1") == reference_write_p1(image)


# --- values are checked before the cast to uint8 ---


@pytest.mark.parametrize(
    "pixels", [np.array([0, 256]), np.array([0, -255]), np.array([0.0, 0.7])]
)
def test_image_rejects_values_that_the_cast_would_wrap(pixels):
    with pytest.raises(FormatError):
        BinaryImage(2, 1, pixels)


def test_from_pixel_list_rejects_values_over_a_byte():
    with pytest.raises(FormatError):
        from_pixel_list(2, 1, [0, 256])


def test_image_accepts_binary_values_of_any_dtype():
    for pixels in (np.array([1, 0]), np.array([1.0, 0.0]), np.array([True, False])):
        image = BinaryImage(2, 1, pixels)
        assert image.pixels.dtype == np.uint8
        assert image.pixels.tolist() == [1, 0]
