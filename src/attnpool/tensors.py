"""Dense float64 matrix substrate.

Arrays are plain numpy float64 ndarrays, row-major, immutable by
convention (every operation here returns a fresh array).  A 3-D spatial
block [n1, n2, f] flattens to [n1*n2, f] with location index
loc = row*n2 + col.  numpy's deterministic left-to-right contraction at
fixed shapes gives reproducible results across runs.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def as_matrix(data, shape=None) -> np.ndarray:
    """Validate and return a float64 array with all entries finite."""
    a = np.asarray(data, dtype=np.float64)
    if shape is not None:
        dims = tuple(int(d) for d in shape)
        if any(d < 1 for d in dims):
            raise ShapeError(f"all dims must be >= 1, got {dims}")
        if a.size != int(np.prod(dims)):
            raise ShapeError(
                f"data length {a.size} does not match shape {dims}"
            )
        a = a.reshape(dims)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def elementwise_mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeError(f"elementwise_mul shape mismatch: {u.shape} vs {v.shape}")
    return u * v
