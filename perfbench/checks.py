"""Output checks made apart from the program: only numpy and the file formats.

Each function returns a list of problems (empty when the check passes).
Scores are rebuilt from the stored tensors with the paper's
factorization, s_k = mean_i t_ik * h_i, where t = X a_k is the top-down
map and h the bottom-up map of the head.
"""

from __future__ import annotations

import os
import struct

import numpy as np

ATTENTION_CHANNEL = 16   # pose head: 16 keypoint channels, then the attention map


def read_atnp(path) -> np.ndarray:
    """'ATNP', u32 version 1, u32 ndim, ndim x u32 dims, f64 little-endian values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"ATNP":
        raise ValueError(f"{path}: bad magic")
    version, ndim = struct.unpack_from("<II", blob, 4)
    dims = struct.unpack_from(f"<{ndim}I", blob, 12)
    count = int(np.prod(dims))
    if version != 1 or len(blob) != 12 + 4 * ndim + 8 * count:
        raise ValueError(f"{path}: bad version or length")
    return np.frombuffer(blob, dtype="<f8", offset=12 + 4 * ndim).reshape(dims)


def _lines(path) -> list:
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if line]


def read_labels(path) -> np.ndarray:
    """Single-label TSV: index, class, planted cell."""
    rows = [line.split("\t") for line in _lines(path)]
    labels = np.full(len(rows), -1, dtype=np.int64)
    for idx, lab, _ in rows:
        labels[int(idx)] = int(lab)
    if labels.min() < 0:
        raise ValueError(f"{path}: missing example index")
    return labels


def read_checkpoint(path) -> tuple[dict, dict]:
    manifest = dict(line.split("=", 1) for line in _lines(os.path.join(path, "manifest.txt")))
    names = [key[len("tensor."):-len(".dims")] for key in manifest
             if key.startswith("tensor.") and key.endswith(".dims")]
    return {name: read_atnp(os.path.join(path, f"{name}.atnp")) for name in names}, manifest


def last_report_row(path) -> tuple[float, float]:
    """(train_loss, val_metric) of the last epoch in report.tsv."""
    last = _lines(path)[-1].split("\t")
    return float(last[1]), float(last[2])


def head_scores(head: str, params: dict, X: np.ndarray) -> np.ndarray:
    """(m, K) scores mean_i t_ik h_i of a trained head on maps X (m, n, f)."""
    m, n, f = X.shape
    flat = X.reshape(m * n, f)
    if head == "avg_pool":
        scores = (flat @ params["W"]).reshape(m, n, -1).sum(axis=1)
    elif head in ("attention", "rank_p"):
        ranks = sorted(int(k[1:]) for k in params if k.startswith("A"))
        scores = sum(np.einsum("mn,mnk->mk", (flat @ params[f"b{p}"]).reshape(m, n),
                               (flat @ params[f"A{p}"]).reshape(m, n, -1)) for p in ranks)
    elif head == "per_class":
        scores = ((flat @ params["A"]) * (flat @ params["B_pc"])).reshape(m, n, -1).sum(axis=1)
    elif head == "pose_reg":
        hidden = np.maximum(flat @ params["W1"] + params["bias1"], 0.0)
        h = (hidden @ params["W2"] + params["bias2"])[:, ATTENTION_CHANNEL]
        scores = np.einsum("mn,mnk->mk", h.reshape(m, n), (flat @ params["A"]).reshape(m, n, -1))
    else:
        raise ValueError(f"no score rule for head {head!r}")
    return scores / n + params.get("bias", 0.0)


def sketch_features(X: np.ndarray, tables) -> np.ndarray:
    """Per-example sums over locations of TensorSketch features, via numpy.fft.

    TS(x) = irfft(rfft(C1 x) * rfft(C2 x)), where C1, C2 are the signed
    f x d count-sketch matrices built from the program's hash/sign tables.
    """
    f, d = X.shape[2], tables.d
    rows = np.arange(f)
    C1, C2 = np.zeros((f, d)), np.zeros((f, d))
    C1[rows, tables.h1] = tables.s1
    C2[rows, tables.h2] = tables.s2
    ts = np.fft.irfft(np.fft.rfft(X @ C1, axis=2) * np.fft.rfft(X @ C2, axis=2), n=d, axis=2)
    return ts.sum(axis=1)


def accuracy_problems(name: str, reported: float, scores: np.ndarray, labels: np.ndarray,
                      decimals: int = 6) -> list:
    """The reported accuracy must match argmax(scores); only exact ties may differ."""
    top2 = np.sort(scores, axis=1)[:, -2:]
    ties = int(np.sum(top2[:, 1] - top2[:, 0] <= 1e-9 * (1.0 + np.abs(top2[:, 1]))))
    hits = int(np.sum(np.argmax(scores, axis=1) == labels))
    gap = abs(reported * len(labels) - hits) - 0.5 * 10.0 ** -decimals * len(labels)
    if gap > ties:
        return [f"{name}: reported accuracy {reported} but rebuilt scores give "
                f"{hits}/{len(labels)} ({ties} near-ties)"]
    return []


def pgm_problems(directory: str, count: int, n1: int, n2: int) -> list:
    """4 PGMs per exported example: three n1 x n2 panels and a 3-panel montage."""
    names = sorted(os.listdir(directory))
    problems = [] if len(names) == 4 * count else [
        f"{directory}: {len(names)} PGM files, expected {4 * count}"]
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            blob = fh.read()
        magic, dims, maxval, data = blob.split(b"\n", 3)
        w, h = (int(t) for t in dims.split())
        want_w = 3 * n2 if name.endswith("_montage.pgm") else n2
        if magic != b"P5" or maxval != b"255" or (w, h) != (want_w, n1) or len(data) != w * h:
            problems.append(f"{name}: not a {want_w}x{n1} binary PGM")
    return problems


def attention_step(A, b, X, y, lr, wd):
    """One SGD step from zero momentum on softmax cross-entropy of the rank-1 head.

    z_ik = (1/n) sum_l (X_i b)_l (X_i A)_lk, loss = mean_i CE(z_i, y_i);
    returns p - lr * (g + wd * p) for p in (A, b).
    """
    m, n, _ = X.shape
    h = X @ b[:, 0]                                   # (m, n)
    t = X @ A                                         # (m, n, K)
    z = np.einsum("mn,mnk->mk", h, t) / n
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(m), y] -= 1.0
    delta = p / m                                     # dL/dz
    gA = np.einsum("mnf,mn->mf", X, h).T @ delta / n
    gb = np.einsum("mnf,mn->f", X, np.einsum("mnk,mk->mn", t, delta))[:, None] / n
    return A - lr * (gA + wd * A), b - lr * (gb + wd * b)


def second_order_scores(X: np.ndarray, A: np.ndarray, b: np.ndarray, literal=(0, 1)):
    """Explicit bilinear scores Tr(X^T X W_k^T)/n with W_k = a_k b^T, per example.

    All classes use a_k^T (X^T X) b; the classes in `literal` also form
    W_k and take the trace as the elementwise sum of (X^T X) * W_k.
    """
    out = []
    n = X.shape[1]
    for x in X:
        M = x.T @ x
        row = A.T @ (M @ b[:, 0]) / n
        for k in literal:
            row[k] = np.sum(M * np.outer(A[:, k], b[:, 0])) / n
        out.append(row)
    return np.array(out)
