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
rather than being rounded to float32 on the way out.  Loaded tensors are
read-only views of the file's bytes.

Arbitrary metadata (config echo, RNG state) rides along as byte blobs
packed into float32 tensors with a length prefix, so round-trips are
byte-exact.
"""

from __future__ import annotations

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


def load_checkpoint(path) -> list[tuple[str, np.ndarray]]:
    """Read named tensors back as read-only views of the file's bytes, so a
    caller copies each one at most once, into its own storage.  Raises
    distinct errors for bad magic, CRC mismatch, and truncation."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8:
        raise TruncatedError(f"{path}: file too short ({len(data)} bytes)")
    if data[:len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:len(MAGIC)]!r}")
    # slices of a memoryview share the file's bytes instead of copying them
    body = memoryview(data)[:-4]
    (crc_stored,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CrcMismatchError(f"{path}: CRC mismatch")

    off = len(MAGIC)

    def take(n):
        nonlocal off
        if off + n > len(body):
            raise TruncatedError(f"{path}: truncated at offset {off}")
        chunk = body[off:off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    tensors = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        raw_name = bytes(take(name_len))
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor {len(tensors)} has a non-UTF-8 name "
                                  f"{raw_name!r}") from None
        (rank,) = struct.unpack("<B", take(1))
        dims = [struct.unpack("<I", take(4))[0] for _ in range(rank)]
        values = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4")
        try:
            tensors.append((name, values.reshape(dims)))
        except ValueError as e:  # rank above NumPy's limit, or too many elements
            raise CheckpointError(f"{path}: tensor {name!r} of rank {rank}: {e}") from None
    if off != len(body):
        raise TruncatedError(f"{path}: {len(body) - off} trailing bytes")
    return tensors
