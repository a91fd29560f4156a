"""Compact bilinear pooling via TensorSketch.

Count sketch hashes each of the f input coordinates to one of d output
bins with a random sign; TensorSketch of x with itself is the circular
convolution of two independent count sketches and is an unbiased
estimator of the outer-product feature in the sense that
E[<TS(x), TS(y)>] = <x, y>^2.  Summing TS over spatial locations gives
the full-rank comparison point for attentional pooling without ever
materializing the f x f statistic.

The circular convolution is a product of spectra (numpy.fft.rfft), so a
sketch costs O(d log d) (Pham & Pagh, KDD 2013).  cbp_pool count-sketches
all rows of a feature map at once, sums their spectrum products over
locations and inverts once per map (Gao et al., CVPR 2016).

Hash and sign tables are pure functions of (seed, f, d) via SplitMix64,
so sketches reproduce bit-exactly across implementations; serializing a
SketchParams means storing only (seed, f, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import u64_stream
from .tensors import ShapeError


@dataclass(frozen=True)
class SketchParams:
    d: int
    h1: np.ndarray  # (f,) ints in [0, d)
    h2: np.ndarray
    s1: np.ndarray  # (f,) signs in {-1, +1}
    s2: np.ndarray
    seed: int

    def __post_init__(self):
        f = len(self.h1)
        for t in (self.h1, self.h2, self.s1, self.s2):
            if len(t) != f:
                raise ShapeError("sketch tables must all have length f")
        if np.any(self.h1 >= self.d) or np.any(self.h2 >= self.d):
            raise ShapeError(f"hash table entry out of range for d={self.d}")
        if not (set(np.unique(self.s1)) <= {-1, 1} and set(np.unique(self.s2)) <= {-1, 1}):
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
                   s2=1 - 2 * (s2 & np.uint64(1)).astype(np.int64), seed=seed)


def count_sketch(x, h, s, d: int) -> np.ndarray:
    """out[..., h[i]] += s[i] * x[..., i]; all other entries zero.

    x is one vector (f,) or a stack of rows (n, f), sketched row by row.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.int64)
    s = np.asarray(s, dtype=np.float64)
    if x.ndim not in (1, 2) or h.shape != x.shape[-1:] or s.shape != h.shape:
        raise ShapeError(f"count_sketch table/input mismatch: {x.shape}, {h.shape}, {s.shape}")
    if np.any(h < 0) or np.any(h >= d):
        raise ShapeError(f"hash index out of range for d={d}")
    # one bincount over all rows: row r's bin j is flat bin r * d + j
    rows = np.arange(int(np.prod(x.shape[:-1])))[:, None] * d
    # (bincount of an empty input is int, hence the astype at f == 0)
    out = np.bincount((rows + h).ravel(), weights=(s * x).ravel(), minlength=rows.size * d)
    return out.reshape(x.shape[:-1] + (d,)).astype(np.float64, copy=False)


def _spectra(x, params: SketchParams):
    """rfft of x's two count sketches (row by row for a stack of rows)."""
    c1 = count_sketch(x, params.h1, params.s1, params.d)
    c2 = count_sketch(x, params.h2, params.s2, params.d)
    return np.fft.rfft(c1), np.fft.rfft(c2)


def tensor_sketch(x, params: SketchParams) -> np.ndarray:
    """TensorSketch of x with itself: circular conv of its two count sketches."""
    f1, f2 = _spectra(x, params)
    return np.fft.irfft(f1 * f2, n=params.d)


def cbp_pool(X, params: SketchParams, normalize: bool = False) -> np.ndarray:
    """Sum of per-location TensorSketches of the rows of X.

    The FFT is linear, so the spectrum products are summed over rows and
    inverted once.  `normalize` applies the signed-square-root + L2 steps
    some CBP pipelines use; off by default.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.num_features:
        raise ShapeError(f"X shape {X.shape} vs sketch f={params.num_features}")
    f1, f2 = _spectra(X, params)
    out = np.fft.irfft((f1 * f2).sum(axis=0), n=params.d)
    if normalize:
        out = np.sign(out) * np.sqrt(np.abs(out))
        norm = np.linalg.norm(out)
        if norm > 0:
            out = out / norm
    return out
