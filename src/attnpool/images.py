"""Heatmap export as binary PGM.

Display normalization maps the source map's min to 0 and max to 255;
constant maps render mid-gray (128).  PGM is used because it round-trips
bit-exactly with no codec dependency.
"""

from __future__ import annotations

import numpy as np

from .autograd import ShapeError


def normalize_map(grid) -> np.ndarray:
    """The (h, w) uint8 display grid of a 2-D map."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"heatmap grid must be 2-D, got shape {g.shape}")
    lo, hi = float(g.min()), float(g.max())
    if hi == lo:
        return np.full(g.shape, 128, dtype=np.uint8)
    return np.clip(np.round((g - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)


def export_pgm(grid: np.ndarray, path) -> None:
    """Binary PGM of an (h, w) uint8 grid: 'P5\\n<w> <h>\\n255\\n' then raw
    bytes, top row first."""
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(grid.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path}: not a supported binary PGM")
    w, h = (int(t) for t in parts[1].split())
    data = parts[3]
    if len(data) != w * h:
        raise ValueError(f"{path}: expected {w * h} data bytes, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def montage(grids) -> np.ndarray:
    """Side-by-side uint8 montage (each panel normalized independently)."""
    panels = [normalize_map(g) for g in grids]
    heights = {p.shape[0] for p in panels}
    if len(heights) != 1:
        raise ShapeError("montage panels must share a height")
    return np.hstack(panels)
