"""Binary checkpoint container for named f64 tensors.

Layout (all little-endian): magic b"HSMG", u32 version=1, u32 tensor
count, then per tensor: u16 name length, UTF-8 name, u8 rank, rank u64
dims, row-major f64 data. Round trips are byte-identical.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"HSMG"
VERSION = 1


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; any malformed or truncated content raises FormatError. Each tensor
    is read straight into a fresh array: the file puts tensor data at any byte offset, and
    numpy would copy an unaligned view of the file's bytes before every BLAS product."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        offset = 0

        def reserve(n: int, what: str) -> int:
            """The `n` bytes of `what` from `offset` on, or FormatError past the file's end."""
            nonlocal offset
            if offset + n > size:
                raise FormatError(f"{path}: truncated in {what} at byte {offset}")
            offset += n
            return n

        def take(n: int, what: str) -> bytes:
            chunk = f.read(reserve(n, what))
            if len(chunk) != n:  # the file shrank while it was read
                raise FormatError(f"{path}: truncated in {what}")
            return chunk

        magic = take(4, "magic")
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, count = struct.unpack("<II", take(8, "header"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            try:
                name = take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: tensor name is not UTF-8") from None
            if name in out:
                raise FormatError(f"{path}: duplicate tensor {name!r}")
            (rank,) = struct.unpack("<B", take(1, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"shape of {name!r}"))
            nbytes = reserve(8 * math.prod(dims), f"data of {name!r}")
            try:
                out[name] = np.empty(dims, dtype="<f8")
            except ValueError:  # an empty tensor whose other dims overflow
                raise FormatError(f"{path}: shape {dims} of {name!r} too large") from None
            if f.readinto(out[name]) != nbytes:
                raise FormatError(f"{path}: truncated in data of {name!r}")
        if offset != size:
            raise FormatError(f"{path}: {size - offset} trailing bytes")
    return out
