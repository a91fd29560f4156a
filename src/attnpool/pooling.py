"""The explicit second-order score: the oracle every head is checked against.

Given a spatial feature map X (n locations x f channels), the
second-order score Tr(X^T X W^T) collapses, for W = a b^T, to the cheap
evaluation a^T (X^T (X b)) that never materializes the f x f statistic.
The heads compute that cheap form in `train._batch_graph`; this module
keeps only the naive form, which materializes X^T X on purpose so the
selftest and the tests can verify the heads against it.
"""

from __future__ import annotations

import numpy as np

from .autograd import ShapeError


def _as2d(x, name):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def score_second_order(X, W) -> float:
    """Explicit second-order score Tr(X^T X W^T); the equivalence oracle.

    Materializes the full f x f statistic on purpose.
    """
    X = _as2d(X, "X")
    W = _as2d(W, "W")
    f = X.shape[1]
    if W.shape != (f, f):
        raise ShapeError(f"W must be {f}x{f}, got {W.shape}")
    G = X.T @ X  # f x f, explicitly materialized
    return float(np.trace(G @ W.T))
