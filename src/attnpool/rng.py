"""Deterministic SplitMix64 random streams.

Every stochastic choice in this library (parameter init, sketch tables,
synthetic data, shuffling) is driven by SplitMix64 so that outputs are
bit-identical across runs and across implementations.  The generator is
the standard one: state advances by the 64-bit golden-ratio constant and
each output is the finalizer mix of the new state.

Derived values:
  float   = (u64 >> 11) * 2**-53                  in [0, 1)
  normal  = Box-Muller on consecutive u64 pairs (u1, u2):
              r     = sqrt(-2 ln(((u1 >> 11) + 1) * 2**-53))
              theta = 2*pi * (u2 >> 11) * 2**-53
              z0    = r*cos(theta),  z1 = r*sin(theta)
  below(n) = u64 % n   (modulo bias is negligible for desk-scale n)
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO53 = float(1 << 53)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def u64_stream(seed, count: int) -> np.ndarray:
    """Vectorized SplitMix64: the first `count` outputs from `seed`, (count,).

    A 1-D array of seeds gives one such row per seed, (len(seed), count).
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    if np.ndim(seed) == 0:
        start = np.uint64(int(seed) & MASK64)
    else:
        start = np.asarray(seed, dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        z = start + np.uint64(GOLDEN) * idx
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
    return z


def float_stream(seed: int, count: int) -> np.ndarray:
    """`count` floats in [0, 1), one per u64 draw: (u64 >> 11) * 2**-53."""
    return (u64_stream(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normal_stream(seed: int, count: int) -> np.ndarray:
    """`count` standard normals via Box-Muller on consecutive u64 pairs.

    Pair 2i, 2i+1 of the u64 stream yields normals 2i (cos branch) and
    2i+1 (sin branch); an odd count drops the final sin value.
    """
    return normals_from_u64(u64_stream(seed, 2 * ((count + 1) // 2)))[:count]


def normals_from_u64(u: np.ndarray) -> np.ndarray:
    """Box-Muller normals from u64 values paired along the last axis, which
    must be even (same pairing as normal_stream, row by row)."""
    if u.shape[-1] % 2 != 0:
        raise ValueError("normals_from_u64 needs an even-length last axis")
    u1 = (u[..., 0::2] >> np.uint64(11)).astype(np.float64)
    u2 = (u[..., 1::2] >> np.uint64(11)).astype(np.float64)
    r = np.sqrt(-2.0 * np.log((u1 + 1.0) / _TWO53))
    theta = 2.0 * np.pi * u2 / _TWO53
    out = np.empty(u.shape, dtype=np.float64)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out
