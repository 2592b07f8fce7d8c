"""Binary image type plus portable-bitmap (PBM) reading and writing.

Only the bilevel netpbm formats are accepted: plain P1 (ASCII 0/1) and raw
P4 (packed bits, MSB first, rows padded to whole bytes).  Pixel value 1 is
black, 0 is white, matching PBM.  Grayscale or color input is rejected
rather than thresholded, since thresholding would silently change the
secret.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

MAX_DIMENSION = 4096

_WHITESPACE = frozenset(b" \t\r\n\x0b\x0c")


@dataclass
class BinaryImage:
    """A width x height grid of black (1) / white (0) pixels, row-major."""

    width: int
    height: int
    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"image dimensions must be positive, got {self.width}x{self.height}"
            )
        if self.width > MAX_DIMENSION or self.height > MAX_DIMENSION:
            raise ValueError(
                f"image dimensions exceed {MAX_DIMENSION}: {self.width}x{self.height}"
            )
        self.pixels = np.asarray(self.pixels, dtype=np.uint8).reshape(-1)
        if self.pixels.size != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} pixels, got {self.pixels.size}"
            )
        if self.pixels.max() > 1:
            raise FormatError("image pixels must be 0 (white) or 1 (black)")

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
    colors = list(colors)
    if len(colors) != width * height:
        raise ValueError(
            f"expected {width * height} colors for {width}x{height}, got {len(colors)}"
        )
    return BinaryImage(width, height, np.array(colors, dtype=np.uint8))


def _skip_space(data: bytes, pos: int) -> int:
    while pos < len(data):
        if data[pos] in _WHITESPACE:
            pos += 1
        elif data[pos] == 0x23:  # '#': comment runs to end of line
            while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    return pos


def _next_token(data: bytes, pos: int, what: str) -> tuple[bytes, int]:
    pos = _skip_space(data, pos)
    if pos >= len(data):
        raise FormatError(f"truncated input: expected {what} at byte {pos}")
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


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
        bits = np.empty(width * height, dtype=np.uint8)
        count = 0
        pos = _skip_space(data, pos)
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
            pos = _skip_space(data, pos + 1)
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
        grid = image.as_grid()
        body = "".join(" ".join(str(b) for b in row) + "\n" for row in grid)
        return header.format("P1").encode("ascii") + body.encode("ascii")
    if variant == "p4":
        packed = np.packbits(image.as_grid(), axis=1)
        return header.format("P4").encode("ascii") + packed.tobytes()
    raise ValueError(f"unknown PBM variant {variant!r} (use 'p1' or 'p4')")
