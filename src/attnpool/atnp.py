"""ATNP binary matrix files.

Layout (all little-endian):
  magic   4 bytes  0x41 0x54 0x4E 0x50  ("ATNP")
  version u32      = 1
  ndim    u32
  dims    ndim x u32
  values  prod(dims) x f64, row-major
"""

from __future__ import annotations

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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, a.ndim))
        fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
        fh.write(memoryview(a.astype("<f8", copy=False)).cast("B"))  # no copy when a is "<f8"


def read_atnp(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise AtnpError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise AtnpError(f"{path}: truncated header")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise AtnpError(f"{path}: unsupported version {version}")
    off = 12
    if len(blob) < off + 4 * ndim:
        raise AtnpError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{ndim}I", blob, off)
    off += 4 * ndim
    count = 1
    for d in dims:
        if d < 1:
            raise AtnpError(f"{path}: invalid dim {d}")
        count *= d
    if len(blob) != off + 8 * count:
        raise AtnpError(
            f"{path}: expected {off + 8 * count} bytes total, got {len(blob)}"
        )
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
    return values.astype(np.float64).reshape(dims)
