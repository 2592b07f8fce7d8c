"""Binary image type plus portable-bitmap (PBM) reading and writing.

Only the bilevel netpbm formats are accepted: plain P1 (ASCII 0/1) and raw
P4 (packed bits, MSB first, rows padded to whole bytes).  Pixel value 1 is
black, 0 is white, matching PBM.  Grayscale or color input is rejected
rather than thresholded, since thresholding would silently change the
secret.

Whitespace is space, tab, LF, VT, FF and CR.  A comment runs from ``#`` to
the next LF or CR and counts as whitespace in the header and between (even
right after) P1 pixels; bytes after the last P1 pixel are ignored.  A P4
raster follows the height after one whitespace byte and may hold any byte.
Every byte offset in a ``FormatError`` message is an offset into the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, int_in_range

MAX_DIMENSION = 4096


def check_sides(width, height) -> tuple[int, int]:
    """The sides of an image as Python ints, each in 1..MAX_DIMENSION."""
    bound = f"outside 1..{MAX_DIMENSION}"
    return tuple(
        int_in_range(side, 1, MAX_DIMENSION, f"image dimensions: {name} {{!r}} {bound}")
        for name, side in (("width", width), ("height", height))
    )


#: PBM's whitespace; in a bytes pattern ``\s`` matches exactly these bytes.
_WHITESPACE = b" \t\r\n\x0b\x0c"
_NOT_SPACE = np.ones(256, dtype=bool)
_NOT_SPACE[list(_WHITESPACE)] = False
_SEPARATOR = re.compile(rb"(?:\s|#[^\r\n]*)*")
_TOKEN = re.compile(rb"[^\s#]*")
#: P1 raster bytes per step of the comment search: its two line-number
#: arrays take 256 KiB each.
_COMMENT_BLOCK = 1 << 16


@dataclass
class BinaryImage:
    """A width x height grid of black (1) / white (0) pixels, row-major."""

    width: int
    height: int
    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.width, self.height = check_sides(self.width, self.height)
        pixels = np.asarray(self.pixels).reshape(-1)
        if pixels.size != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} pixels, got {pixels.size}"
            )
        # Checked before the cast to uint8, which would wrap 256 to 0.  uint8
        # and bool input, from every reader and encoder, takes one max() pass.
        narrow = pixels.dtype in (np.uint8, np.bool_)
        binary = pixels.max() <= 1 if narrow else np.isin(pixels, (0, 1)).all()
        if not binary:
            raise FormatError("image pixels must be 0 (white) or 1 (black)")
        self.pixels = pixels.astype(np.uint8, copy=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.pixels, other.pixels))
        )

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def pixel(self, l: int) -> int:
        """Color bit of the l-th pixel, l in 1..pixel_count."""
        if l < 1 or l > self.pixel_count:
            raise IndexError(f"pixel index {l} out of range 1..{self.pixel_count}")
        return int(self.pixels[l - 1])

    def as_grid(self) -> np.ndarray:
        return self.pixels.reshape(self.height, self.width)


def from_pixel_list(width: int, height: int, colors) -> BinaryImage:
    """Build an image from colors listed in pixel-index order (l = 1..s)."""
    return BinaryImage(width, height, np.array(list(colors)))


def _next_token(data: bytes, pos: int, what: str) -> tuple[bytes, int]:
    pos = _SEPARATOR.match(data, pos).end()
    if pos >= len(data):
        raise FormatError(f"truncated input: expected {what} at byte {pos}")
    end = _TOKEN.match(data, pos).end()
    return data[pos:end], end


def _parse_dimension(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, newpos = _next_token(data, pos, what)
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"bad {what} {token!r} at byte {pos}") from None
    if value < 1 or value > MAX_DIMENSION:
        raise FormatError(
            f"{what} {value} at byte {pos} outside 1..{MAX_DIMENSION}"
        )
    return value, newpos


def _clear_comments(raster: np.ndarray, keep: np.ndarray) -> None:
    """Clears ``keep`` over every byte of ``raster`` that lies in a comment:
    a ``#`` comes at or before it on its line.

    In each block, lines are numbered from 1 by a running count of CR and
    LF bytes, each line end opening the next line; a byte is in a comment
    when the last ``#`` up to it lies on its own line.  A block whose
    first line continues a comment counts it as a ``#`` before its first
    byte.
    """
    carry = False
    for start in range(0, len(raster), _COMMENT_BLOCK):
        block = raster[start : start + _COMMENT_BLOCK]
        line = np.cumsum((block == ord("\r")) | (block == ord("\n")), dtype=np.uint32)
        line += 1
        last = np.where(block == ord("#"), line, 0)
        last[0] |= carry
        np.maximum.accumulate(last, out=last)
        comment = last == line
        keep[start : start + _COMMENT_BLOCK] &= ~comment
        carry = comment[-1]


def read_pbm(data: bytes) -> BinaryImage:
    """Parse a plain (P1) or raw (P4) portable bitmap."""
    magic, pos = _next_token(data, 0, "magic")
    if magic not in (b"P1", b"P4"):
        raise FormatError(
            f"unsupported magic {magic!r} at byte 0: only bilevel P1/P4 accepted"
        )
    width, pos = _parse_dimension(data, pos, "width")
    height, pos = _parse_dimension(data, pos, "height")

    if magic == b"P1":
        # Raster index + pos = offset into the file.
        raster = np.frombuffer(memoryview(data)[pos:], dtype=np.uint8)
        keep = _NOT_SPACE[raster]
        if data.find(b"#", pos) >= 0:
            _clear_comments(raster, keep)
        bits = raster[keep][: width * height]
        bits -= ord("0")
        if bits.size and bits.max() > 1:
            at = pos + int(np.flatnonzero(keep)[np.argmax(bits > 1)])
            raise FormatError(f"invalid pixel byte {bytes([data[at]])!r} at byte {at}")
        if bits.size < width * height:
            raise FormatError(
                f"truncated pixel data at byte {len(data)}: got {bits.size} of "
                f"{width * height} pixels"
            )
        return BinaryImage(width, height, bits)

    # P4: a single whitespace byte separates the header from the raster.
    if pos >= len(data) or data[pos] not in _WHITESPACE:
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


def write_pbm(image: BinaryImage, variant: str = "p1") -> bytes:
    """Serialize to canonical P1 or P4 bytes (lossless inverse of read_pbm)."""
    header = f"{{}}\n{image.width} {image.height}\n"
    if variant == "p1":
        # Rows of "d d ... d\n": digits in even columns, spaces in odd ones.
        text = np.full((image.height, 2 * image.width), ord(" "), dtype=np.uint8)
        np.add(image.as_grid(), ord("0"), out=text[:, 0::2])
        text[:, -1] = ord("\n")
        return header.format("P1").encode("ascii") + text.tobytes()
    if variant == "p4":
        packed = np.packbits(image.as_grid(), axis=1)
        return header.format("P4").encode("ascii") + packed.tobytes()
    raise ValueError(f"unknown PBM variant {variant!r} (use 'p1' or 'p4')")
