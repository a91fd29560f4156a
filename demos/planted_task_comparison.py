"""Attention vs average pooling on the planted-attention task.

Generates a small synthetic task where exactly one grid cell carries the
class signal, trains the average-pooling and rank-1 attention heads with
identical settings, and reports validation accuracy and how often the
attention head's combined map peaks at the planted cell.  Exports a
combined/top-down/bottom-up heatmap montage for the first validation
example.

Run:  python3 demos/planted_task_comparison.py
"""

import os

# attnpool before numpy: importing the package pins BLAS to one thread,
# which numpy's BLAS reads once, when numpy loads
from attnpool.images import export_pgm, montage
from attnpool.synth import PlantedTaskConfig, gen_planted
from attnpool.train import TrainConfig, eval_forward, train

import numpy as np

task = PlantedTaskConfig(n1=5, n2=5, f=24, K=6, train_samples=600,
                         val_samples=200, seed=7)
train_ds, val_ds = gen_planted(task)
print(f"task: {task.n1}x{task.n2} grid, f={task.f}, K={task.K}, "
      f"{len(train_ds)} train / {len(val_ds)} val")

reports = {}
for head in ("avg_pool", "attention"):
    reports[head] = train(TrainConfig(head=head, epochs=30, seed=0),
                          train_ds, val_ds)

print(f"\n{'epoch':>5} {'avg loss':>9} {'avg val':>8} {'att loss':>9} "
      f"{'att val':>8} {'att loc':>8}")
for i in range(0, 30, 5):
    a = reports["avg_pool"].epochs[i]
    t = reports["attention"].epochs[i]
    print(f"{i:>5} {a.train_loss:>9.4f} {a.val_metric:>8.3f} "
          f"{t.train_loss:>9.4f} {t.val_metric:>8.3f} {t.localization:>8.3f}")

avg = reports["avg_pool"]
att = reports["attention"]
print(f"\nfinal: avg_pool val {avg.final_val_metric:.3f} | attention val "
      f"{att.final_val_metric:.3f} | attention localization "
      f"{att.final_localization:.3f}")

# heatmap montage for the first validation example (true class)
k = int(val_ds.labels[0])
_, maps = eval_forward(att.params, att.config, val_ds.X[:1], classes=[k])
grids = {key: maps[key][0].reshape(task.n1, task.n2) for key in ("c", "t", "h")}
out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
path = os.path.join(out_dir, "val0_montage.pgm")
export_pgm(montage([grids["c"], grids["t"], grids["h"]]), path)
pr, pc = divmod(int(val_ds.planted[0]), task.n2)
mr, mc = divmod(int(np.argmax(grids["c"])), task.n2)
print(f"example 0: planted cell ({pr},{pc}), combined-map peak ({mr},{mc})")
print(f"wrote {path} (combined | top-down | bottom-up)")
