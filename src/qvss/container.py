"""The container of every share (.qvs) and session (.qvse) file.

All integers are little-endian.  A file is a header, a body, and a CRC32
trailer over both:

* header: magic (``QVSS`` in a share, ``QVSE`` in a session), version u8
  (7: any other is rejected), backend id u8 (1=statevector, 2=sampled),
  n u16, participant u16 (zero in a session), width u32, height u32,
  session id (16 bytes);
* share body: nothing (statevector) or the share's bit plane (sampled);
* session body: the master seed u64, then either the statevector register
  table as it is held (its length u32; per entry its amplitude form u8,
  its 2^n-bit support and its complex128 amplitudes, one that every
  support bit shares or one per set bit; then each pixel's table index as
  bit_length(length - 1) bit planes, most significant first), or the n
  sampled bit planes in participant order, share j's body being bytes
  ``[(j-1)*P, j*P)`` of them.

A bit plane is one bit per pixel, packed MSB first with zero pad bits:
P = ceil(width*height/8) bytes.  README's "File formats" sets out every
field.  ``write`` streams a file part by part under a running CRC32, so no
file is held whole to be written; ``read`` checks a file and hands its body
out through a ``Cursor``, as views of its bytes.  ``protocol`` writes and
reads each body, and checks the header fields.
"""

from __future__ import annotations

import struct
import zlib

from .errors import FormatError

SHARE_MAGIC, SESSION_MAGIC, VERSION = b"QVSS", b"QVSE", 7

#: Magic, version, then the fields ``write`` takes and ``read`` returns:
#: backend id, n, participant, width, height, session id.
_HEADER = struct.Struct("<4sBBHHII16s")
_CRC = struct.Struct("<I")


def write(sink, magic: bytes, fields: tuple, parts) -> int:
    """Write one container through ``sink`` (a file's ``write``, a
    ``bytearray``'s ``extend``): the header, each part that ``parts``
    yields (bytes-like, C-contiguous) as it comes, then the CRC32 of all
    of them.  Returns the file's size in bytes."""
    header = _HEADER.pack(magic, VERSION, *fields)
    sink(header)
    crc, size = zlib.crc32(header), len(header)
    for part in parts:
        with memoryview(part) as raw, raw.cast("B") as piece:
            sink(piece)
            crc, size = zlib.crc32(piece, crc), size + len(piece)
    sink(_CRC.pack(crc))
    return size + _CRC.size


class Cursor:
    """A container's body, read front to back: ``take`` returns the next
    ``count`` bytes as a view of the file, or names the field and the file
    offset of a short read."""

    def __init__(self, view: memoryview, offset: int, what: str):
        self._view, self.offset, self._what = view, offset, what

    @property
    def left(self) -> int:
        return len(self._view) - self.offset

    def take(self, count: int, field: str) -> memoryview:
        if count > self.left:
            raise FormatError(
                f"truncated {self._what}: {field} needs {count} bytes at byte "
                f"{self.offset}, only {self.left} remain"
            )
        self.offset += count
        return self._view[self.offset - count : self.offset]


def read(data, magic: bytes, what: str) -> tuple[tuple, Cursor]:
    """Check one container's size, CRC32, magic and version, in that order,
    naming the file as ``what``.  Returns the header fields that ``write``
    takes, and a ``Cursor`` over the body."""
    if len(data) < _HEADER.size + _CRC.size:
        raise FormatError(f"truncated {what}: {len(data)} bytes")
    view = memoryview(data)[: -_CRC.size]
    if zlib.crc32(view) != _CRC.unpack_from(data, len(view))[0]:
        raise FormatError(f"{what} checksum mismatch")
    found, version, *fields = _HEADER.unpack_from(view)
    if found != magic:
        raise FormatError(f"bad magic {found!r} in {what}, expected {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported {what} format version {version}")
    return tuple(fields), Cursor(view, _HEADER.size, what)
