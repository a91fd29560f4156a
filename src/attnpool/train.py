"""Mini-batch SGD training for every scoring head.

Heads: avg_pool (top-down only), attention (rank-1, shared bottom-up),
rank_p, per_class, pose_reg (MLP bottom-up channel with keypoint
supervision), cbp (linear classifier on TensorSketch features).

Every batch is one tape over the split's inputs and the batch's row
indices.  attention and rank_p read the split in place (`Tape.attend`,
one cache-sized block of examples at a time, so at the paper's width no
batch is copied), and take their class maps from the same read; the
other heads stack the batch's examples into one (B*n, f) block, with
per-example sums and pooling over blocks of n rows.  Tape nodes are the
parameters and what is computed from them: data, targets and class maps
are arrays, so backward differentiates only the parameters.
`_batch_graph` is the one definition of every head's scores and maps,
and `head_inputs` the one place that decides what a head scores.  The
labels choose the loss: softmax for (m,) labels, sigmoid for (m, K).
Training and `eval_scores` score by pooling first (X^T h per example, as
in the identity a^T (X^T (X b))) and record no map.  Validation,
`evaluate`, localization, the heatmap command and the selftest oracle
checks read its forward pass with the maps of one class per example
(`eval_forward`).
The pose_reg head is a two-layer MLP over the spatial features, recorded
as one tape node (`Tape.mlp`), that predicts 17 channels per location:
channels 0..15 are keypoint heatmaps supervised with a masked L2 loss,
channel 16 is an unconstrained nonlinear bottom-up attention map that
replaces the linear h = X b.  Its keypoint targets and loss weights are
those of each example's planted cell, read from one per-cell table that
`train` builds once per run from `synth.gen_pose_targets`.
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

from .autograd import ShapeError, Tape
from .rng import float_stream, mix64, u64_stream
from .sketch import SketchParams, cbp_pool
from .synth import KEYPOINT_OFFSETS, Dataset, gen_pose_targets, metric_accuracy, metric_map

HEAD_KINDS = ("avg_pool", "attention", "rank_p", "per_class", "pose_reg", "cbp")
NUM_POSE_CHANNELS = len(KEYPOINT_OFFSETS)
ATTENTION_CHANNEL = NUM_POSE_CHANNELS
NUM_HEAD_CHANNELS = NUM_POSE_CHANNELS + 1  # pose_reg: keypoints, then the attention channel


# sgd_step updates each parameter in blocks of about this many values, so a
# block of p, v, g and a temporary (4 x 256 KiB) stays in L2 cache across
# the update's passes.
SGD_BLOCK_VALUES = 2 ** 15


class TrainDivergence(RuntimeError):
    """Raised when a gradient or loss goes non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Training run settings: the `[train]` config keys, and the fields a
    checkpoint manifest records, in this order."""

    head: str = "attention"
    seed: int = 0
    rank: int = 1
    hdim: int = 128
    sketch_dim: int = 64
    use_bias: bool = False
    lambda_pose: float = 0.1
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    epochs: int = 50

    def __post_init__(self):
        if self.head not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.head!r}")
        if not 0 < self.lr < np.inf:
            raise ValueError("learning rate must be positive and finite")
        if not np.isfinite(self.weight_decay):
            raise ValueError("weight_decay must be finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0 or self.rank < 1:
            raise ValueError("batch_size/epochs/rank out of range")
        if self.hdim < 1 or self.sketch_dim < 1:
            raise ValueError("hdim/sketch_dim must be >= 1")
        if not 0 <= self.lambda_pose < np.inf:
            raise ValueError("lambda_pose must be nonnegative and finite")


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
    diverged_at: str | None = None  # "epoch E batch B: <reason>" of an aborted run

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

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
    """In-place heavy-ball update: v <- m*v + g + wd*p;  p <- p - lr*v.

    Overwrites the arrays of params and state (each of one or more
    dimensions), in the operation order of the formula, so the result is
    bitwise that of the formula.  Each parameter goes through in blocks of
    whole rows of about SGD_BLOCK_VALUES values, so its temporaries are one
    block each; its whole gradient is checked before any of its blocks is
    written.
    """
    for name in params:
        g, v, p = grads[name], state[name], params[name]
        if not np.isfinite(g).all():
            raise TrainDivergence(f"non-finite gradient for parameter {name!r}")
        step = max(1, SGD_BLOCK_VALUES // max(1, p[:1].size))
        for i in range(0, len(p), step):
            pb, vb = p[i:i + step], v[i:i + step]
            vb *= momentum
            vb += g[i:i + step]
            vb += weight_decay * pb
            pb -= lr * vb


def head_shapes(config: TrainConfig, f: int, K: int) -> dict:
    """{name: shape} of a head's parameters at f features and K classes,
    in init draw order."""
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
    if config.use_bias:
        shapes["bias"] = (1, K)
    return shapes


def init_head_params(config: TrainConfig, f: int, K: int) -> dict:
    """Seeded parameter dict for a head; fixed draw order per head kind.

    Weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] with fan_in
    their row count, filled row-major, tensor after tensor in the order of
    head_shapes, from one SplitMix64 stream seeded with config.seed.
    Biases start at zero and take no draws.
    """
    shapes = head_shapes(config, f, K)
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


def _cbp_features(X: np.ndarray, sk: SketchParams) -> np.ndarray:
    return cbp_pool(X, sk)


def head_inputs(config: TrainConfig, X: np.ndarray) -> np.ndarray:
    """What a head scores of a stack of feature maps X (m, n, f): the maps
    themselves, or for cbp their mean-pooled sketch features (m, d)."""
    if config.head != "cbp":
        return X
    return _cbp_features(X, sketch_for(config, X.shape[2])) / X.shape[1]


def _rank_of(config: TrainConfig) -> int:
    return 1 if config.head == "attention" else config.rank


def _class_columns(param: np.ndarray, classes, f: int) -> np.ndarray:
    """Each example's column of an (f, K) parameter for its class, (B, f, 1):
    the readout vectors of its class maps.  The one check of classes."""
    classes = np.asarray(classes, dtype=np.int64)
    if (param.ndim != 2 or param.shape[0] != f or classes.ndim != 1
            or np.any((classes < 0) | (classes >= param.shape[1]))):
        raise ShapeError(f"class maps need an (f={f}, K) parameter and classes in [0, K), "
                         f"got {param.shape} and {classes}")
    return param[:, classes].T.reshape(len(classes), f, 1)


def _batch_graph(tape: Tape, config: TrainConfig, nodes: dict, inputs: np.ndarray, rows,
                 classes=None):
    """Record one batch's forward pass; returns (logits, maps).

    This is the only definition of each head's scores and maps: training
    differentiates it, and evaluation, localization and heatmaps read its
    values (see eval_forward).  Every head scores class k as sum_i t_ik h_i
    over locations i (top-down map t, bottom-up map h).  Where h is one
    column (attention, rank_p per component, pose_reg) that is
    a_k^T (X^T (X b)), so scores pool first, X^T h per example, with no
    (B*n, K) map; avg_pool pools X itself; per_class, with K bottom-up
    columns, sums its combined map.  logits is the (B, K) node.

    The batch is examples `rows` (a slice, or a 1-D array of indices) of
    a split's `head_inputs`: its feature maps (m, n, f), or for cbp its
    mean-pooled sketch features (m, d).  attention and rank_p read their
    scores, and their class maps, from the split in place, one pass over
    each example (`Tape.attend`); every other head takes the batch as
    inputs[rows], a view for a slice and a copy for an index array.

    classes (one class index per example, or None) also reads out the maps
    of those classes only, as (B*n, 1) arrays that no gradient flows
    through.  Each head states its (h, t) pair per rank component: t is
    X_e times the example's class column of a parameter (`_class_columns`,
    the one class check), h the bottom-up map (ones for avg_pool, the
    class's own column for per_class).  maps then holds "h" and "t" of the
    first component and "c", t h summed over components.  maps always
    holds pose_reg's "out", the `Tape.mlp` node of its 17 channels, for its
    pose loss; h and the loss's keypoint channels are column slices of
    "out" (`Tape.cols`).  maps is None for cbp.  `use_bias` adds its bias,
    on every head, as a row (`Tape.add_row`).

    Logits are the spatial *mean* of the per-location maps (scores / n),
    matching average-style pooling; the 1/n factor only reparametrizes
    the sum-form scores and keeps SGD well conditioned across grid sizes.
    """
    maps = None
    if config.head == "cbp":
        scores = tape.linear(inputs[rows], nodes["W"])
    else:
        n, f = inputs.shape[1:]
        maps, read = {}, classes is not None
        if config.head in ("attention", "rank_p"):
            ranks = range(_rank_of(config))
            us = ([_class_columns(nodes[f"A{p}"].value, classes, f) for p in ranks]
                  if read else None)
            parts = tape.attend(inputs, rows, [nodes[f"b{p}"] for p in ranks], us)
            for p, (_, pooled, *_) in enumerate(parts):
                sp = tape.matmul(pooled, nodes[f"A{p}"])
                scores = sp if p == 0 else tape.add(scores, sp)
            pairs = [(h, t) for h, _, t in parts] if read else ()
        else:
            Xb = inputs[rows]
            Xs = Xb.reshape(len(Xb) * n, f)

            def top(name):  # each example's map X_e a for its class column a
                return (Xb @ _class_columns(nodes[name].value, classes, f)).reshape(len(Xs), 1)

            if config.head == "avg_pool":
                scores = tape.linear(Xb.sum(axis=1), nodes["W"])
                pairs = [(np.ones((len(Xs), 1)), top("W"))] if read else ()
            elif config.head == "per_class":
                scores = tape.segment_sum(tape.elementwise_mul(
                    tape.linear(Xs, nodes["A"]), tape.linear(Xs, nodes["B_pc"])), n)
                pairs = [(top("B_pc"), top("A"))] if read else ()
            else:  # pose_reg
                out = tape.mlp(Xs, nodes["W1"], nodes["bias1"], nodes["W2"], nodes["bias2"])
                h = tape.cols(out, ATTENTION_CHANNEL, ATTENTION_CHANNEL + 1)
                scores = tape.matmul(tape.pool(Xs, h, n), nodes["A"])
                maps["out"] = out
                pairs = [(h.value, top("A"))] if read else ()
        if read:
            (h, t), *rest = pairs
            c = t * h
            for hp, tp in rest:
                c += tp * hp
            maps.update(h=h, t=t, c=c)
        scores = tape.scalar_mul(scores, 1.0 / n)
    if "bias" in nodes:
        scores = tape.add_row(scores, nodes["bias"])
    return scores, maps


def _batch_loss(tape: Tape, config: TrainConfig, nodes: dict, inputs, rows, yb, pose=None):
    """The loss node of examples `rows` of a split's inputs (see
    _batch_graph): cross-entropy, softmax for (B,) labels yb and sigmoid
    for (B, K), plus, given a pose_reg pose, lambda_pose times the masked
    L2 loss of its keypoint (targets, weights), each (B*n, 16)."""
    scores, maps = _batch_graph(tape, config, nodes, inputs, rows)
    xent = tape.softmax_xent if np.ndim(yb) == 1 else tape.sigmoid_xent
    loss = xent(scores, yb)
    if pose is not None:
        keypoints = tape.cols(maps["out"], 0, NUM_POSE_CHANNELS)
        pose_l = tape.scalar_mul(tape.sq_error(keypoints, *pose), 1.0 / len(yb))
        loss = tape.add(loss, tape.scalar_mul(pose_l, config.lambda_pose))
    return loss


def eval_forward(params: dict, config: TrainConfig, inputs: np.ndarray, classes=None):
    """Scores (m, K) of a split's head inputs (see head_inputs), and the
    maps of one class per example.

    Forward passes of `_batch_graph` over chunks of config.batch_size
    examples, with no backward pass: the pass that validation, `evaluate`,
    `eval_scores`, the heatmap command and the selftest oracle checks read.
    classes holds one class index per example; maps is then {"h", "t",
    "c"}, each (m, n), for those classes (see _batch_graph).  maps is None
    when classes is None and for cbp.
    """
    m = len(inputs)
    if classes is not None and len(classes) != m:
        raise ShapeError(f"{len(classes)} classes for {m} examples")
    scores, maps = [], None
    for start in range(0, max(m, 1), config.batch_size):  # m == 0: one empty chunk
        stop = start + config.batch_size
        tape = Tape()
        nodes = {name: tape.leaf(p) for name, p in params.items()}
        logits, chunk = _batch_graph(tape, config, nodes, inputs, slice(start, stop),
                                     None if classes is None else classes[start:stop])
        scores.append(logits.value)
        if classes is not None and chunk is not None:
            # copy out the maps only: a chunk's "out" node would keep its tape alive
            if maps is None:
                maps = {key: np.empty(inputs.shape[:2]) for key in ("h", "t", "c")}
            for key, values in maps.items():
                values[start:stop] = chunk[key].reshape(-1, inputs.shape[1])
        del tape, nodes, logits, chunk  # freed before the next chunk's graph is built
    return np.concatenate(scores), maps


def eval_scores(params: dict, config: TrainConfig, X: np.ndarray) -> np.ndarray:
    """Scores (m, K) for a stack of feature maps (m, n, f); see eval_forward."""
    return eval_forward(params, config, head_inputs(config, X))[0]


def true_classes(dataset: Dataset) -> np.ndarray:
    """Each example's label, or its first positive label for multi-label data."""
    labels = dataset.labels
    return labels if labels.ndim == 1 else np.argmax(labels > 0, axis=1)


def localization_rate(maps: dict | None, dataset: Dataset) -> float:
    """Fraction of examples whose true-class combined map peaks at the planted cell.

    `maps` comes from eval_forward on dataset.X with classes=true_classes(dataset);
    None (cbp) gives nan.
    """
    if maps is None:
        return float("nan")
    return float(np.mean(np.argmax(maps["c"], axis=1) == dataset.planted))


def _fisher_yates(m: int, seed: int) -> np.ndarray:
    """Fisher-Yates order of range(m): for i = m-1 down to 1, swap i with
    j = u % (i + 1), u the next u64 of the seed's stream, all drawn at once."""
    js = (u64_stream(seed, max(m - 1, 0)) % np.arange(m, 1, -1, dtype=np.uint64)).tolist()
    idx = list(range(m))
    for i, j in zip(range(m - 1, 0, -1), js):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int64)


def train(config: TrainConfig, train_ds: Dataset, val_ds: Dataset) -> TrainReport:
    """Train a head; deterministic given the config.  Aborts on divergence
    with the partial report, whose diverged_at names the epoch, the batch
    and the parameter or the loss that went non-finite."""
    if len(train_ds) == 0:
        raise ValueError("training dataset is empty")
    if config.head == "pose_reg" and not train_ds.config.pose:
        raise ValueError("pose_reg head needs a split generated with task.pose = true")
    m, n, f = train_ds.X.shape
    K = train_ds.config.K

    params = init_head_params(config, f, K)
    state = {name: np.zeros_like(p) for name, p in params.items()}
    report = TrainReport(config=config)
    t0 = time.perf_counter()
    inputs, val_inputs = head_inputs(config, train_ds.X), head_inputs(config, val_ds.X)
    pose = None  # pose_reg's keypoint (targets, loss weights) per planted cell
    if config.head == "pose_reg" and config.lambda_pose > 0:
        heatmaps, masks = gen_pose_targets(train_ds.config)
        # weights sqrt(mask / (n * visible)), 0 where no keypoint is visible:
        # one squared error then yields sum_i ||diff_i||^2_masked / (n * visible_i)
        visible = np.maximum(masks.sum(axis=1, keepdims=True), 1)
        pose = heatmaps, np.sqrt(masks / (n * visible))

    try:
        for epoch in range(config.epochs):
            order = _fisher_yates(m, config.seed + epoch)
            total_loss, total_seen = 0.0, 0
            for batch, start in enumerate(range(0, m, config.batch_size)):
                idx = order[start:start + config.batch_size]
                tape = Tape()
                nodes = {name: tape.leaf(p) for name, p in params.items()}
                cells = train_ds.planted[idx]
                loss = _batch_loss(tape, config, nodes, inputs, idx, train_ds.labels[idx],
                                   pose and (pose[0][cells].reshape(-1, NUM_POSE_CHANNELS),
                                             np.repeat(pose[1][cells], n, axis=0)))
                if not np.isfinite(loss.value):
                    raise TrainDivergence("non-finite training loss")
                tape.backward(loss)
                grads = {name: nodes[name].grad for name in params}
                sgd_step(params, grads, state, config.lr, config.momentum,
                         config.weight_decay)
                total_loss += float(loss.value) * len(idx)
                total_seen += len(idx)
            del tape, nodes, loss, grads  # the last batch's tape, not needed by validation
            val = evaluate(params, config, val_ds, val_inputs)
            report.epochs.append(EpochRecord(
                epoch=epoch,
                train_loss=total_loss / total_seen,
                val_metric=val["accuracy"] if "accuracy" in val else val["map"],
                localization=val["localization"],
            ))
            del val  # its maps would otherwise stay alive through the next epoch
    except TrainDivergence as exc:
        report.diverged_at = f"epoch {epoch} batch {batch}: {exc}"
    report.params = params
    report.wall_clock_s = time.perf_counter() - t0
    return report


def evaluate(params: dict, config: TrainConfig, dataset: Dataset,
             inputs: np.ndarray | None = None) -> dict:
    """Scores, accuracy (or mAP), localization and the true-class combined
    maps (m, n; None for cbp) from one forward pass.

    inputs are dataset.X's `head_inputs`, computed here unless given.
    """
    if inputs is None:
        inputs = head_inputs(config, dataset.X)
    scores, maps = eval_forward(params, config, inputs, true_classes(dataset))
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


def write_summary(path, report: TrainReport) -> None:
    kv = {
        "head": report.config.head,
        "epochs": len(report.epochs),
        "final_train_loss": f"{report.final_train_loss:.17g}",
        "final_val_metric": f"{report.final_val_metric:.17g}",
        "final_localization": f"{report.final_localization:.17g}",
        "wall_clock_s": f"{report.wall_clock_s:.3f}",
        "diverged": str(report.diverged).lower(),
    }
    if report.diverged:
        kv["diverged_at"] = report.diverged_at
    with open(path, "w") as fh:
        for k, v in kv.items():
            fh.write(f"{k}={v}\n")
