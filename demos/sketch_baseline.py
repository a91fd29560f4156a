"""Compact bilinear pooling baseline: TensorSketch statistics and training.

Shows the unbiasedness property E[<TS(x), TS(y)>] = <x, y>^2 numerically,
then trains the CBP linear classifier on the planted task next to the
rank-1 attention head for a like-for-like comparison.

Run:  python3 demos/sketch_baseline.py
"""

# attnpool before numpy: importing the package pins BLAS to one thread,
# which numpy's BLAS reads once, when numpy loads
from attnpool.sketch import SketchParams, cbp_pool
from attnpool.synth import PlantedTaskConfig, gen_planted
from attnpool.train import TrainConfig, train

import numpy as np

rng = np.random.default_rng(0)
f, d, trials = 16, 64, 2000
x, y = rng.standard_normal(f), rng.standard_normal(f)
target = float(np.dot(x, y)) ** 2
vals = np.array([
    float(np.dot(cbp_pool(x[None], SketchParams.from_seed(f, d, seed)),
                 cbp_pool(y[None], SketchParams.from_seed(f, d, seed))))
    for seed in range(trials)
])
se = vals.std(ddof=1) / np.sqrt(trials)
print(f"TensorSketch unbiasedness (f={f}, d={d}, {trials} sketch seeds):")
print(f"  <x,y>^2 = {target:.4f}   mean <TS(x),TS(y)> = {vals.mean():.4f}"
      f"   (standard error {se:.4f})\n")

task = PlantedTaskConfig(n1=5, n2=5, f=24, K=6, train_samples=600,
                         val_samples=200, seed=7)
train_ds, val_ds = gen_planted(task)
for head, kw in (("cbp", {"sketch_dim": 64}), ("attention", {})):
    report = train(TrainConfig(head=head, epochs=30, seed=0, **kw),
                   train_ds, val_ds)
    loc = report.final_localization
    loc_str = f"{loc:.3f}" if np.isfinite(loc) else "n/a (no spatial maps)"
    print(f"{head:>9}: val accuracy {report.final_val_metric:.3f}, "
          f"localization {loc_str}")
