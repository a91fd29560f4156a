"""Compact bilinear pooling via TensorSketch.

Count sketch hashes each of the f input coordinates to one of d output
bins with a random sign; TensorSketch of x with itself is the circular
convolution of two independent count sketches and is an unbiased
estimator of the outer-product feature in the sense that
E[<TS(x), TS(y)>] = <x, y>^2.  Summing TS over spatial locations gives
the full-rank comparison point for attentional pooling as d values in
place of the f x f statistic (Pham & Pagh, KDD 2013).

TensorSketch is linear in the outer product x x^T, so a map's pooled
sketch is a fixed projection of its Gram matrix G = X^T X:
    sum_i TS(x_i)[k] = sum_{a,b} G_ab s1_a s2_b [(h1_a + h2_b) mod d = k].
cbp_pool pools first: one batched matmul gives each map's G and one
signed bincount projects it, so its cost grows with f * f per map and
not with d.  A stack of maps goes through in chunks of whole maps of at
most CHUNK_VALUES values (maps x f x f): fewer numpy calls than one per
map, and a working set of bounded size.  Its features are bitwise those
of per-map calls.

Hash and sign tables are pure functions of (seed, f, d) via SplitMix64,
so a seed reproduces its sketch tables bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import ShapeError
from .rng import u64_stream

# values (maps x f x f Gram entries) that cbp_pool projects at once
CHUNK_VALUES = 2 ** 15


@dataclass(frozen=True)
class SketchParams:
    d: int
    h1: np.ndarray  # (f,) ints in [0, d)
    h2: np.ndarray
    s1: np.ndarray  # (f,) signs in {-1, +1}
    s2: np.ndarray

    def __post_init__(self):
        f = len(self.h1)
        for t in (self.h1, self.h2, self.s1, self.s2):
            if len(t) != f:
                raise ShapeError("sketch tables must all have length f")
        h = np.concatenate((self.h1, self.h2))
        if not ((h >= 0) & (h < self.d)).all():
            raise ShapeError(f"hash table entry out of range [0, {self.d})")
        if not (np.abs(np.concatenate((self.s1, self.s2))) == 1).all():
            raise ValueError("sign tables must contain only -1/+1")

    @property
    def num_features(self) -> int:
        return len(self.h1)

    @classmethod
    def from_seed(cls, f: int, d: int, seed: int) -> "SketchParams":
        """Derive tables from SplitMix64(seed); draw order h1, s1, h2, s2.

        Each table is f consecutive draws: hashes are u64 % d, signs
        1 - 2 * (u64 & 1).
        """
        if d < 1:
            raise ValueError(f"sketch dimension must be >= 1, got {d}")
        h1, s1, h2, s2 = u64_stream(seed, 4 * f).reshape(4, f)
        return cls(d=d, h1=(h1 % np.uint64(d)).astype(np.int64),
                   h2=(h2 % np.uint64(d)).astype(np.int64),
                   s1=1 - 2 * (s1 & np.uint64(1)).astype(np.int64),
                   s2=1 - 2 * (s2 & np.uint64(1)).astype(np.int64))


def cbp_pool(X, params: SketchParams) -> np.ndarray:
    """Sum of per-location TensorSketches of the rows of one map (n, f)
    -> (d,), or of each map of a stack (m, n, f) -> (m, d).

    Projects each map's Gram matrix X^T X onto the d bins.  A stack goes
    through in chunks of whole maps, of at most CHUNK_VALUES Gram entries
    unless one map alone has more.  The TensorSketch of one vector x is
    cbp_pool(x[None], params), the pooled sketch of a map with one
    location.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] != params.num_features:
        raise ShapeError(f"X shape {X.shape} vs sketch f={params.num_features}")
    if X.ndim == 2:
        return cbp_pool(X[None], params)[0]
    m, _, f = X.shape
    d = params.d
    # bin (h1_a + h2_b) mod d and sign s1_a s2_b of each entry (a, b) of X^T X
    bins = ((params.h1[:, None] + params.h2) % d).ravel()
    signs = (params.s1[:, None] * params.s2).ravel().astype(np.float64)
    step = max(1, min(m, CHUNK_VALUES // max(1, f * f)))
    # map r's bin k is flat bin r * d + k; a partial last chunk takes a prefix
    flat_bins = (np.arange(step)[:, None] * d + bins).ravel()
    out = np.empty((m, d))
    for start in range(0, m, step):
        chunk = X[start:start + step]
        c = len(chunk)
        # a contiguous transpose keeps matmul off its slower path for two
        # views of one buffer; the products are bitwise the same
        G = np.matmul(np.ascontiguousarray(chunk.transpose(0, 2, 1)), chunk).reshape(c, f * f)
        out[start:start + c] = np.bincount(flat_bins[:c * f * f], weights=(G * signs).ravel(),
                                           minlength=c * d).reshape(c, d)
    return out
