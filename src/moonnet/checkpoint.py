"""Binary checkpoint format.

Layout (all little-endian):

    8 bytes   magic "MOONNET1"
    u32       tensor count
    per tensor:
        u16   name length, then name bytes (utf-8)
        u8    rank
        u32   each dimension
        f32   values, row-major
    u32       CRC32 of every preceding byte

Only float32 tensors are saved; any other dtype raises CheckpointError
rather than being rounded to float32 on the way out.  A load reads each
tensor from the file straight into the array that keeps it.

Arbitrary metadata (config echo, RNG state) rides along as byte blobs
packed into float32 tensors with a length prefix, so round-trips are
byte-exact.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = [
    "MAGIC",
    "CheckpointError",
    "BadMagicError",
    "CrcMismatchError",
    "TruncatedError",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointReader",
    "bytes_to_tensor",
    "tensor_to_bytes",
    "META_PREFIX",
]

MAGIC = b"MOONNET1"
META_PREFIX = "__meta__/"


class CheckpointError(IOError):
    """Base class for checkpoint save and load failures."""


class BadMagicError(CheckpointError):
    pass


class CrcMismatchError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    pass


def bytes_to_tensor(data: bytes) -> np.ndarray:
    """Pack an arbitrary byte string into a rank-1 float32 array
    (length-prefixed, zero-padded to a multiple of 4)."""
    blob = struct.pack("<I", len(data)) + data
    blob += b"\0" * (-len(blob) % 4)
    return np.frombuffer(blob, dtype="<f4").copy()


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    """Inverse of ``bytes_to_tensor``; raises CheckpointError when the length
    prefix is missing or runs past the end of the blob."""
    blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    if len(blob) < 4:
        raise CheckpointError(f"blob of {len(blob)} bytes has no length prefix")
    (length,) = struct.unpack_from("<I", blob)
    if 4 + length > len(blob):
        raise CheckpointError(f"blob length prefix {length} runs past its {len(blob) - 4} bytes")
    return blob[4:4 + length]


def save_checkpoint(tensors: list[tuple[str, np.ndarray]], path):
    """Write named tensors; order is preserved so re-saving is byte-identical."""
    parts = [MAGIC, struct.pack("<I", len(tensors))]
    for name, arr in tensors:
        arr = np.asarray(arr)
        if arr.dtype.kind != "f" or arr.dtype.itemsize != 4:
            raise CheckpointError(f"tensor {name!r} is {arr.dtype}, not float32")
        # ascontiguousarray would promote rank-0 to rank-1; asarray keeps it
        arr = np.asarray(arr, dtype="<f4", order="C")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<I", d))
        parts.append(arr.reshape(-1))
    # write a sibling and rename it over path, so a failed save leaves no
    # partial file; the CRC is folded over the parts as they are written
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            crc = 0
            for part in parts:
                crc = zlib.crc32(part, crc)
                f.write(part)
            f.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class CheckpointReader(contextlib.AbstractContextManager):
    """One pass over an open checkpoint file: ``header()`` gives the next
    tensor's name and shape (None after the last), then ``read(into=None)``
    reads its values straight into ``into``, a C-contiguous float32 array, or
    a new array.  Lengths are checked before anything is allocated and the CRC
    after the last tensor; a CheckpointError raised in the ``with`` block
    becomes CrcMismatchError if the CRC is wrong."""

    def __init__(self, f):
        self.f, self.path, self.names = f, f.name, set()
        self.left, self.crc = os.fstat(f.fileno()).st_size - 4, 0
        if (magic := self._take(len(MAGIC))) != MAGIC:
            raise BadMagicError(f"{self.path}: bad magic {magic!r}")
        (self.count,) = struct.unpack("<I", self._take(4))
        f.seek(-4, os.SEEK_END)
        (self.stored_crc,) = struct.unpack("<I", f.read(4))
        f.seek(len(MAGIC) + 4)

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, CheckpointError) and not isinstance(exc, CrcMismatchError):
            self._check_crc()

    def _check_crc(self):
        while self.left:  # fold in the bytes not read yet
            self._take(min(self.left, 1 << 16))
        if self.crc != self.stored_crc:
            raise CrcMismatchError(f"{self.path}: CRC mismatch") from None

    def _take(self, n: int) -> bytes:
        if n > self.left:
            raise TruncatedError(f"{self.path}: truncated at offset {self.f.tell()}")
        data = self.f.read(n)
        self.left -= n
        self.crc = zlib.crc32(data, self.crc)
        return data

    def header(self) -> tuple[str, tuple[int, ...]] | None:
        if len(self.names) == self.count:
            if self.left:
                raise TruncatedError(f"{self.path}: {self.left} trailing bytes")
            self._check_crc()
            return None
        (name_len,) = struct.unpack("<H", self._take(2))
        raw_name = self._take(name_len)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{self.path}: tensor {len(self.names)} has a non-UTF-8 name "
                                  f"{raw_name!r}") from None
        if name in self.names:
            raise CheckpointError(f"{self.path}: duplicate tensor {name!r}")
        self.names.add(name)
        (rank,) = struct.unpack("<B", self._take(1))
        self.name, self.shape = name, struct.unpack(f"<{rank}I", self._take(4 * rank))
        if 4 * math.prod(self.shape) > self.left:
            raise TruncatedError(f"{self.path}: tensor {name!r} of shape {self.shape} is cut off")
        return name, self.shape

    def read(self, into: np.ndarray | None = None) -> np.ndarray:
        if into is None:
            try:
                into = np.empty(self.shape, dtype="<f4")
            except ValueError as e:  # rank above NumPy's limit, or too many elements
                raise CheckpointError(f"{self.path}: tensor {self.name!r} of rank "
                                      f"{len(self.shape)}: {e}") from None
        if into.shape != self.shape:
            raise CheckpointError(f"{self.path}: tensor {self.name!r} has shape {self.shape}, "
                                  f"where {into.shape} is expected")
        raw = into.ravel().view(np.uint8)  # a view, as ``into`` is C-contiguous
        self.left -= self.f.readinto(raw)
        self.crc = zlib.crc32(raw, self.crc)
        return into


def load_checkpoint(path) -> list[tuple[str, np.ndarray]]:
    """Read every named tensor into a new array, in file order.  Raises
    distinct errors for bad magic, CRC mismatch, and truncation."""
    with open(path, "rb") as f, CheckpointReader(f) as r:
        return [(name, r.read()) for name, _ in iter(r.header, None)]
