"""ATNP binary matrix files.

Layout (all little-endian):
  magic   4 bytes  0x41 0x54 0x4E 0x50  ("ATNP")
  version u32      = 1
  ndim    u32
  dims    ndim x u32
  values  prod(dims) x f64, row-major
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"ATNP"
VERSION = 1


class AtnpError(ValueError):
    """Malformed or truncated ATNP file."""


def write_atnp(path, array) -> None:
    a = np.ascontiguousarray(array, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.size == 0:  # read_atnp rejects a dim of 0
        raise AtnpError(f"{path}: cannot write shape {a.shape}, which has a dim of 0")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, a.ndim))
        fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
        fh.write(memoryview(a.astype("<f8", copy=False)).cast("B"))  # no copy when a is "<f8"


def read_atnp(path) -> np.ndarray:
    """Read an ATNP file into one array, checking its size before allocating."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != MAGIC:
            raise AtnpError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 12:
            raise AtnpError(f"{path}: truncated header")
        version, ndim = struct.unpack_from("<II", head, 4)
        if version != VERSION:
            raise AtnpError(f"{path}: unsupported version {version}")
        off = 12 + 4 * ndim
        if size < off:
            raise AtnpError(f"{path}: truncated dims")
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        count = 1
        for d in dims:
            if d < 1:
                raise AtnpError(f"{path}: invalid dim {d}")
            count *= d
        if size != off + 8 * count:
            raise AtnpError(f"{path}: expected {off + 8 * count} bytes total, got {size}")
        values = np.empty(count, dtype="<f8")
        got = off + fh.readinto(memoryview(values).cast("B"))
        if got != size:  # the file shrank after fstat
            raise AtnpError(f"{path}: expected {size} bytes total, got {got}")
    return values.astype(np.float64, copy=False).reshape(dims)
