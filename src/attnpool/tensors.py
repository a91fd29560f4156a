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


def flatten_spatial(grid: np.ndarray) -> np.ndarray:
    """[n1, n2, f] -> [n1*n2, f] with loc = row*n2 + col."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3:
        raise ShapeError(f"expected a 3-D spatial block, got shape {grid.shape}")
    n1, n2, f = grid.shape
    return grid.reshape(n1 * n2, f)


def unflatten_spatial(x: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """[n1*n2, ...] -> [n1, n2, ...], inverse of flatten_spatial."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != n1 * n2:
        raise ShapeError(f"cannot reshape {x.shape[0]} locations to {n1}x{n2}")
    return x.reshape((n1, n2) + x.shape[1:])
