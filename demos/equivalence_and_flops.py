"""Rank-1 attention as low-rank second-order pooling: the core identity.

For W = a b^T the explicit second-order score Tr(X^T X W^T) equals the
cheap evaluation a^T (X^T (X b)).  This script checks the identity on
random instances, scoring with the attention head that training uses,
and compares the analytic FLOP costs of the two paths.

Run:  python3 demos/equivalence_and_flops.py
"""

# attnpool before numpy: importing the package pins BLAS to one thread,
# which numpy's BLAS reads once, when numpy loads
from attnpool.bench import flops_full_second_order, flops_rank_p
from attnpool.pooling import score_second_order
from attnpool.train import TrainConfig, eval_scores

import numpy as np

rng = np.random.default_rng(0)
attention = TrainConfig(head="attention")

print("identity check: a^T (X^T (X b))  vs  Tr(X^T X (a b^T)^T)")
worst = 0.0
for _ in range(200):
    n = int(rng.integers(1, 17))
    f = int(rng.integers(1, 17))
    X = rng.standard_normal((n, f))
    a = rng.standard_normal(f)
    b = rng.standard_normal(f)
    # the head's logits are the spatial mean, so scale back by n
    cheap = eval_scores({"A0": a[:, None], "b0": b[:, None]}, attention, X[None])[0, 0] * n
    oracle = score_second_order(X, np.outer(a, b))
    worst = max(worst, abs(cheap - oracle) / (1.0 + abs(cheap)))
print(f"  worst relative error over 200 instances: {worst:.3e}\n")

print("analytic FLOPs (full second order vs rank-1 attention)")
print(f"  {'n':>4} {'f':>5} {'K':>4} {'full':>14} {'rank-1':>10} {'ratio':>8}")
for n, f, K in [(49, 512, 8), (49, 2048, 393), (196, 2048, 1000)]:
    full = flops_full_second_order(n, f, K)
    r1 = flops_rank_p(n, f, K, 1)
    print(f"  {n:>4} {f:>5} {K:>4} {full:>14,} {r1:>10,} {full / r1:>7.0f}x")
