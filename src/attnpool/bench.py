"""FLOP accounting and wall-clock evidence for the low-rank shortcut.

Analytic costs (multiply and add counted separately, so one multiply-add
is 2 FLOPs; accumulation of rank components into the output is excluded
by convention):

  full second order : 2*n*f^2 (materialize X^T X) + 2*K*f^2 (K classifiers)
  rank-P attention  : P * (4*n*f + 2*K*f)
                       = per component: X b (2nf), X^T h (2nf), K dots (2Kf)

The instrumented scorers perform the real numpy computation while
tallying FLOPs through the same primitives, so counter-vs-formula
equality is exact (Python ints keep the counts overflow-safe).  They
tally no allocations: that rank-P scoring makes no f x f temporary is
checked on the tape of the path that scores, `train._batch_graph`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

import numpy as np

SWEEP_N = (1, 7, 49)
SWEEP_F = (8, 64, 512)
SWEEP_K = (1, 10, 100)
SWEEP_P = (1, 2, 5)
# (n, f, K) of the wall-clock rows that `attnpool bench` writes and selftest checks
TIMING_SIZE = (196, 512, 100)


def flops_full_second_order(n: int, f: int, K: int) -> int:
    return 2 * n * f * f + 2 * K * f * f


def flops_rank_p(n: int, f: int, K: int, P: int) -> int:
    return P * (4 * n * f + 2 * K * f)


@dataclass
class OpCounter:
    """Tally of FLOPs for one scoring call."""

    flops: int = 0

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m, k = a.shape
        k2, p = b.shape
        assert k == k2
        self.flops += 2 * m * k * p
        return a @ b

    def dot_all(self, a: np.ndarray, b: np.ndarray) -> float:
        # full elementwise inner product, e.g. Tr(G W^T) = sum(G o W)
        assert a.shape == b.shape
        self.flops += 2 * a.size
        return float((a * b).sum())


def rank_p_scores_counted(X, A_p, b_p, counter: OpCounter) -> np.ndarray:
    """Rank-P multiclass scores via the cheap evaluation order, instrumented."""
    scores = None
    for A, b in zip(A_p, b_p):
        h = counter.matmul(X, b.reshape(-1, 1))          # (n, 1)
        x = counter.matmul(X.T, h)                       # (f, 1)
        s = counter.matmul(A.T, x)                       # (K, 1)
        scores = s if scores is None else scores + s     # accumulation not counted
    return scores[:, 0]


def full_scores_counted(X, W, K: int, counter: OpCounter) -> np.ndarray:
    """Explicit second-order scores, instrumented.

    Materializes G = X^T X (f^2 temporary) and applies the f x f
    classifier W to it K times; one shared W stands in for K distinct
    W_k so the sweep stays within desk-scale memory.
    """
    G = counter.matmul(X.T, X)                           # (f, f)
    return np.array([counter.dot_all(G, W) for _ in range(K)])


def _bench_case(kind: str, n: int, f: int, K: int, P: int, rng) -> tuple:
    """One bench row's scoring call at (n, f, K), drawn from rng (X, then
    the rank_p factors A_p and b_p or the full classifier W): its P (0
    for full), its analytic FLOPs, and call(counter), which scores once."""
    X = rng.standard_normal((n, f))
    if kind == "rank_p":
        A_p = [rng.standard_normal((f, K)) for _ in range(P)]
        b_p = [rng.standard_normal(f) for _ in range(P)]
        return P, flops_rank_p(n, f, K, P), lambda c: rank_p_scores_counted(X, A_p, b_p, c)
    if kind == "full":
        W = rng.standard_normal((f, f))
        return 0, flops_full_second_order(n, f, K), lambda c: full_scores_counted(X, W, K, c)
    raise ValueError(f"unknown bench kind {kind!r}")


def bench_wallclock(kind: str, n: int, f: int, K: int, P: int = 1,
                    repetitions: int = 50, seed: int = 0) -> dict:
    """One `write_csv` row for a scoring call at (n, f, K): its analytic
    FLOPs and the median/IQR time of the instrumented call, with a fresh
    OpCounter per call; warm-up iterations excluded.

    P is the rank of a rank_p row; a full row's P is 0.
    """
    P, flops, call = _bench_case(kind, n, f, K, P, np.random.default_rng(seed))
    for _ in range(5):
        call(OpCounter())
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter_ns()
        call(OpCounter())
        samples.append(time.perf_counter_ns() - t0)
    samples.sort()
    q1, q3 = samples[len(samples) // 4], samples[(3 * len(samples)) // 4]
    return {"kind": kind, "n": n, "f": f, "K": K, "P": P, "flops_analytic": flops,
            "ns_median": median(samples), "ns_iqr": q3 - q1}


def sweep_rows(seed: int = 0) -> list:
    """Analytic-vs-instrumented FLOP rows over the standard sweep grid."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in SWEEP_N:
        for f in SWEEP_F:
            for K in SWEEP_K:
                for kind, P in [("full", 0)] + [("rank_p", P) for P in SWEEP_P]:
                    P, flops, call = _bench_case(kind, n, f, K, P, rng)
                    call(c := OpCounter())
                    rows.append({"kind": kind, "n": n, "f": f, "K": K, "P": P,
                                 "flops_analytic": flops, "flops_measured": c.flops})
    return rows


def write_csv(path, rows) -> None:
    """One line per row; a sweep row has no times, a timing row no measured FLOPs."""
    columns = "kind,n,f,K,P,flops_analytic,flops_measured,ns_median,ns_iqr".split(",")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for r in rows:
            fh.write(",".join(str(r.get(col, "")) for col in columns) + "\n")
