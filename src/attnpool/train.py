"""Mini-batch SGD training for every scoring head.

Heads: avg_pool (top-down only), attention (rank-1, shared bottom-up),
rank_p, per_class, pose_reg (MLP bottom-up channel with keypoint
supervision), cbp (linear classifier on TensorSketch features).

Every batch is one tape: the per-example score computations are stacked
into block matrices so the whole batch stays inside the autograd op set
(selector matrices replace slicing, ones-matmuls replace broadcasting).
`_batch_graph` is the one definition of every head's scores and maps:
validation, `evaluate`, localization, the heatmap command and the
selftest oracle checks all read its forward pass (`eval_forward`).
Runs are bit-reproducible: Fisher-Yates shuffling from SplitMix64
(seed + epoch), gradient accumulation in ascending example order, and a
fixed parameter draw order at init.

Default hyperparameters (lr 0.03, momentum 0.9, wd 1e-4, batch 32,
50 epochs) are this library's own choices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tape
from .pose import NUM_HEAD_CHANNELS, NUM_POSE_CHANNELS, ATTENTION_CHANNEL
from .rng import SplitMix64, float_stream, mix64
from .sketch import SketchParams, cbp_pool
from .synth import Dataset, metric_accuracy, metric_map
from .tensors import ShapeError

HEAD_KINDS = ("avg_pool", "attention", "rank_p", "per_class", "pose_reg", "cbp")


class TrainDivergence(RuntimeError):
    """Raised when a gradient or loss goes non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    head: str = "attention"
    rank: int = 1
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    lambda_pose: float = 0.1
    loss: str = "softmax"        # or "sigmoid" for multi-label
    hdim: int = 128
    sketch_dim: int = 64
    use_bias: bool = False

    def __post_init__(self):
        if self.head not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.head!r}")
        if self.loss not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown loss kind {self.loss!r}")
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0 or self.rank < 1:
            raise ValueError("batch_size/epochs/rank out of range")
        if self.lambda_pose < 0:
            raise ValueError("lambda_pose must be nonnegative")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float
    localization: float


@dataclass
class TrainReport:
    config: TrainConfig
    epochs: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    diverged: bool = False

    @property
    def final_val_metric(self) -> float:
        return self.epochs[-1].val_metric if self.epochs else float("nan")

    @property
    def final_train_loss(self) -> float:
        return self.epochs[-1].train_loss if self.epochs else float("nan")

    @property
    def final_localization(self) -> float:
        return self.epochs[-1].localization if self.epochs else float("nan")


def sgd_step(params: dict, grads: dict, state: dict, lr: float,
             momentum: float, weight_decay: float) -> None:
    """In-place heavy-ball update: v <- m*v + g + wd*p;  p <- p - lr*v."""
    for name in params:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainDivergence(f"non-finite gradient for parameter {name!r}")
        state[name] = momentum * state[name] + g + weight_decay * params[name]
        params[name] = params[name] - lr * state[name]


def init_head_params(config: TrainConfig, f: int, K: int) -> dict:
    """Seeded parameter dict for a head; fixed draw order per head kind.

    Weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] with fan_in
    their row count, filled row-major, tensor after tensor in dict order,
    from one SplitMix64 stream seeded with config.seed.  Biases start at
    zero and take no draws.
    """
    if config.head == "avg_pool":
        shapes = {"W": (f, K)}
    elif config.head in ("attention", "rank_p"):
        shapes = {}
        for p in range(_rank_of(config)):
            shapes.update({f"A{p}": (f, K), f"b{p}": (f, 1)})
    elif config.head == "per_class":
        shapes = {"A": (f, K), "B_pc": (f, K)}
    elif config.head == "pose_reg":
        shapes = {"W1": (f, config.hdim), "W2": (config.hdim, NUM_HEAD_CHANNELS),
                  "bias1": (1, config.hdim), "bias2": (1, NUM_HEAD_CHANNELS), "A": (f, K)}
    else:
        shapes = {"W": (config.sketch_dim, K)}
    if config.use_bias and config.head != "pose_reg":
        shapes["bias"] = (1, K)
    weights = {name: shape for name, shape in shapes.items() if not name.startswith("bias")}
    draws = float_stream(config.seed, sum(int(np.prod(shape)) for shape in weights.values()))
    params: dict[str, np.ndarray] = {}
    used = 0
    for name, shape in shapes.items():
        if name not in weights:
            params[name] = np.zeros(shape)
            continue
        size = int(np.prod(shape))
        scale = 1.0 / np.sqrt(shape[0])
        params[name] = ((2.0 * draws[used:used + size] - 1.0) * scale).reshape(shape)
        used += size
    return params


def sketch_for(config: TrainConfig, f: int) -> SketchParams:
    """Sketch tables for the cbp head; seed split off the run seed."""
    return SketchParams.from_seed(f, config.sketch_dim, mix64(config.seed + 1))


def _rank_of(config: TrainConfig) -> int:
    return 1 if config.head == "attention" else config.rank


def _batch_graph(tape: Tape, config: TrainConfig, nodes: dict, Xb: np.ndarray,
                 extra: dict):
    """Record one batch's forward pass; returns (logits, maps).

    This is the only definition of each head's scores and maps: training
    differentiates it, and evaluation, localization and heatmaps read its
    values (see eval_forward).  Every head scores class k as 1^T (t_k o h):
    logits is the (B, K) node, and maps holds the (B*n, K) nodes "t"
    (top-down), "h" (bottom-up, broadcast over classes; the first rank
    component for rank_p, ones for avg_pool) and "c" (combined, summed
    over rank components; avg_pool's is its top-down map).  pose_reg adds
    "out", the MLP's 17 channels.  maps is None for cbp.

    Logits are the spatial *mean* of the per-location maps (scores / n),
    matching average-style pooling; the 1/n factor only reparametrizes
    the sum-form scores and keeps SGD well conditioned across grid sizes.
    """
    B, n, f = Xb.shape
    maps = None
    if config.head == "cbp":
        F = tape.leaf(extra["features"] / n)  # mean-pooled sketches
        scores = tape.matmul(F, nodes["W"])
    else:
        Xs = tape.leaf(Xb.reshape(B * n, f))
        S = tape.leaf(np.kron(np.eye(B), np.ones((1, n))))  # block row sums
        if config.head == "avg_pool":
            t = tape.matmul(Xs, nodes["W"])
            maps = {"h": tape.leaf(np.ones(t.value.shape)), "t": t, "c": t}
            scores = tape.matmul(S, t)
        elif config.head in ("attention", "rank_p"):
            ones_k = tape.leaf(np.ones((1, nodes["A0"].value.shape[1])))
            for p in range(_rank_of(config)):
                h = tape.matmul(Xs, nodes[f"b{p}"])              # (Bn, 1)
                t = tape.matmul(Xs, nodes[f"A{p}"])              # (Bn, K)
                hk = tape.matmul(h, ones_k)
                c = tape.elementwise_mul(t, hk)
                sp = tape.matmul(S, c)
                if maps is None:
                    maps, scores = {"h": hk, "t": t, "c": c}, sp
                else:
                    maps["c"] = tape.add(maps["c"], c)
                    scores = tape.add(scores, sp)
        elif config.head == "per_class":
            t = tape.matmul(Xs, nodes["A"])
            hm = tape.matmul(Xs, nodes["B_pc"])
            c = tape.elementwise_mul(t, hm)
            maps = {"h": hm, "t": t, "c": c}
            scores = tape.matmul(S, c)
        elif config.head == "pose_reg":
            ones_col = tape.leaf(np.ones((B * n, 1)))
            hidden = tape.relu(tape.add(tape.matmul(Xs, nodes["W1"]),
                                        tape.matmul(ones_col, nodes["bias1"])))
            out = tape.add(tape.matmul(hidden, nodes["W2"]),
                           tape.matmul(ones_col, nodes["bias2"]))
            e_att = np.zeros((NUM_HEAD_CHANNELS, 1))
            e_att[ATTENTION_CHANNEL, 0] = 1.0
            h = tape.matmul(out, tape.leaf(e_att))
            t = tape.matmul(Xs, nodes["A"])
            hk = tape.matmul(h, tape.leaf(np.ones((1, t.value.shape[1]))))
            c = tape.elementwise_mul(t, hk)
            maps = {"h": hk, "t": t, "c": c, "out": out}
            scores = tape.matmul(S, c)
        else:
            raise ValueError(f"unknown head kind {config.head!r}")
        scores = tape.scalar_mul(scores, 1.0 / n)
    if "bias" in nodes:
        ones_b = tape.leaf(np.ones((B, 1)))
        scores = tape.add(scores, tape.matmul(ones_b, nodes["bias"]))
    return scores, maps


def _batch_loss(tape: Tape, config: TrainConfig, nodes: dict, Xb, yb, extra):
    scores, maps = _batch_graph(tape, config, nodes, Xb, extra)
    if config.loss == "softmax":
        loss = tape.softmax_xent(scores, yb)
    else:
        loss = tape.sigmoid_xent(scores, yb)
    if config.head == "pose_reg" and config.lambda_pose > 0:
        B, n, _ = Xb.shape
        sel = np.zeros((NUM_HEAD_CHANNELS, NUM_POSE_CHANNELS))
        sel[:NUM_POSE_CHANNELS, :NUM_POSE_CHANNELS] = np.eye(NUM_POSE_CHANNELS)
        p16 = tape.matmul(maps["out"], tape.leaf(sel))
        diff = tape.subtract(p16, tape.leaf(extra["pose_targets"]))
        # per-example mask folded into sqrt weights so one sum_squares
        # yields sum_i ||diff_i||^2_masked / (n * visible_i)
        weighted = tape.elementwise_mul(diff, tape.leaf(extra["pose_weights"]))
        pose_l = tape.scalar_mul(tape.sum_squares(weighted), 1.0 / B)
        loss = tape.add(loss, tape.scalar_mul(pose_l, config.lambda_pose))
    return loss


def _pose_batch_extra(dataset: Dataset, idx, n):
    hm = dataset.pose_heatmaps[idx]     # (B, n, 16)
    masks = dataset.pose_masks[idx]     # (B, 16)
    visible = masks.sum(axis=1)
    w = np.zeros_like(masks)
    nz = visible > 0
    w[nz] = masks[nz] / (n * visible[nz, None])
    weights = np.sqrt(np.repeat(w, n, axis=0))
    B = len(idx)
    return hm.reshape(B * n, NUM_POSE_CHANNELS), weights


def eval_forward(params: dict, config: TrainConfig, X: np.ndarray,
                 cbp_features: np.ndarray | None = None):
    """Scores (m, K) and maps of a stack of feature maps (m, n, f).

    Forward passes of `_batch_graph` over chunks of config.batch_size
    examples, with no backward pass, so the block-sum leaf stays at its
    training size.  maps is None for cbp, else {"h", "t", "c"} as (m, n, K)
    arrays (see _batch_graph).  cbp needs its sketch features (m, d).
    """
    m, n, _ = X.shape
    scores, chunk_maps = [], []
    for start in range(0, max(m, 1), config.batch_size):  # m == 0: one empty chunk
        stop = start + config.batch_size
        extra = {} if cbp_features is None else {"features": cbp_features[start:stop]}
        tape = Tape()
        nodes = {name: tape.leaf(p) for name, p in params.items()}
        logits, maps = _batch_graph(tape, config, nodes, X[start:stop], extra)
        scores.append(logits.value)
        chunk_maps.append(maps)
    scores = np.concatenate(scores)
    if chunk_maps[0] is None:
        return scores, None
    K = scores.shape[1]
    return scores, {key: np.concatenate([maps[key].value for maps in chunk_maps]).reshape(m, n, K)
                    for key in ("h", "t", "c")}


def eval_scores(params: dict, config: TrainConfig, X: np.ndarray,
                cbp_features: np.ndarray | None = None) -> np.ndarray:
    """Scores (m, K) for a stack of feature maps (m, n, f); see eval_forward."""
    return eval_forward(params, config, X, cbp_features)[0]


def localization_rate(maps: dict | None, dataset: Dataset) -> float:
    """Fraction of examples whose true-class combined map peaks at the planted cell.

    `maps` comes from eval_forward on dataset.X; None (cbp) gives nan.
    """
    if maps is None:
        return float("nan")
    c = maps["c"]
    m = len(dataset)
    if dataset.labels.ndim == 1:
        true_maps = c[np.arange(m), :, dataset.labels]
    else:
        first_pos = np.argmax(dataset.labels > 0, axis=1)
        true_maps = c[np.arange(m), :, first_pos]
    return float(np.mean(np.argmax(true_maps, axis=1) == dataset.planted))


def _fisher_yates(m: int, seed: int) -> np.ndarray:
    rng = SplitMix64(seed)
    idx = np.arange(m)
    for i in range(m - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _cbp_features(config: TrainConfig, dataset: Dataset, sk: SketchParams) -> np.ndarray:
    return np.stack([cbp_pool(dataset.X[i], sk) for i in range(len(dataset))])


def train(config: TrainConfig, train_ds: Dataset, val_ds: Dataset) -> TrainReport:
    """Train a head; deterministic given the config.  Aborts on divergence
    with the partial report (diverged=True)."""
    if len(train_ds) == 0:
        raise ValueError("training dataset is empty")
    if config.head == "pose_reg" and train_ds.pose_heatmaps is None:
        raise ValueError("pose_reg head needs pose targets (gen_pose_targets)")
    m, n, f = train_ds.X.shape
    K = train_ds.config.K
    if config.loss == "sigmoid" and train_ds.labels.ndim != 2:
        raise ShapeError("sigmoid loss needs multi-label (m, K) labels")

    params = init_head_params(config, f, K)
    state = {name: np.zeros_like(p) for name, p in params.items()}
    report = TrainReport(config=config)
    t0 = time.perf_counter()

    cbp_train = cbp_val = None
    if config.head == "cbp":
        sk = sketch_for(config, f)
        cbp_train = _cbp_features(config, train_ds, sk)
        cbp_val = _cbp_features(config, val_ds, sk)

    for epoch in range(config.epochs):
        order = _fisher_yates(m, config.seed + epoch)
        total_loss, total_seen = 0.0, 0
        for start in range(0, m, config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb = train_ds.X[idx]
            yb = train_ds.labels[idx]
            extra = {}
            if config.head == "cbp":
                extra["features"] = cbp_train[idx]
            if config.head == "pose_reg" and config.lambda_pose > 0:
                extra["pose_targets"], extra["pose_weights"] = _pose_batch_extra(
                    train_ds, idx, n)
            tape = Tape()
            nodes = {name: tape.leaf(p) for name, p in params.items()}
            loss = _batch_loss(tape, config, nodes, Xb, yb, extra)
            if not np.isfinite(loss.value):
                report.diverged = True
                report.params = params
                report.wall_clock_s = time.perf_counter() - t0
                return report
            tape.backward(loss)
            grads = {name: nodes[name].grad for name in params}
            try:
                sgd_step(params, grads, state, config.lr, config.momentum,
                         config.weight_decay)
            except TrainDivergence:
                report.diverged = True
                report.params = params
                report.wall_clock_s = time.perf_counter() - t0
                return report
            total_loss += float(loss.value) * len(idx)
            total_seen += len(idx)
        del tape, nodes, loss, grads, Xb  # the last batch's tape, not needed by validation
        val = evaluate(params, config, val_ds, cbp_val)
        report.epochs.append(EpochRecord(
            epoch=epoch,
            train_loss=total_loss / total_seen,
            val_metric=val["accuracy"] if "accuracy" in val else val["map"],
            localization=val["localization"],
        ))
        del val  # its maps would otherwise stay alive through the next epoch

    report.params = params
    report.wall_clock_s = time.perf_counter() - t0
    return report


def evaluate(params: dict, config: TrainConfig, dataset: Dataset,
             cbp_features: np.ndarray | None = None) -> dict:
    """Scores, accuracy (or mAP), localization and the combined maps
    (m, n, K; None for cbp) from one forward pass.

    cbp computes its sketch features from dataset.X unless given them.
    """
    if config.head == "cbp" and cbp_features is None:
        cbp_features = _cbp_features(config, dataset, sketch_for(config, dataset.X.shape[2]))
    scores, maps = eval_forward(params, config, dataset.X, cbp_features)
    out: dict = {"scores": scores, "maps": maps["c"] if maps else None,
                 "localization": localization_rate(maps, dataset)}
    if dataset.labels.ndim == 1:
        out["accuracy"] = metric_accuracy(scores, dataset.labels)
    else:
        out["map"], out["skipped_classes"] = metric_map(scores, dataset.labels)
    return out


def write_report(path, report: TrainReport) -> None:
    """Line format: epoch<TAB>train_loss<TAB>val_metric<TAB>localization_rate."""
    with open(path, "w") as fh:
        for rec in report.epochs:
            fh.write(f"{rec.epoch}\t{rec.train_loss:.17g}\t{rec.val_metric:.17g}"
                     f"\t{rec.localization:.17g}\n")


def write_summary(path, report: TrainReport, extra: dict | None = None) -> None:
    kv = {
        "head": report.config.head,
        "epochs": len(report.epochs),
        "final_train_loss": f"{report.final_train_loss:.17g}",
        "final_val_metric": f"{report.final_val_metric:.17g}",
        "final_localization": f"{report.final_localization:.17g}",
        "wall_clock_s": f"{report.wall_clock_s:.3f}",
        "diverged": str(report.diverged).lower(),
    }
    if extra:
        kv.update(extra)
    with open(path, "w") as fh:
        for k, v in kv.items():
            fh.write(f"{k}={v}\n")
