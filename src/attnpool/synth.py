"""Planted-attention synthetic task and evaluation metrics.

Each example is an n1 x n2 grid of f-dimensional features, flattened to
(n1*n2, f) with location index loc = row*n2 + col.  Background
cells are i.i.d. standard normal; a handful of clutter cells carry
class-agnostic distractor patterns; exactly one planted cell carries the
class prototype plus a class-agnostic object-marker pattern, both scaled
by signal_strength.  Prototypes are unit-norm and then centered across
classes (their mean is subtracted), so the class signal vanishes under
plain average pooling while remaining fully decidable from the planted
cell - spatial selectivity is what the task rewards.

The marker is the same for every class and example (and orthogonal to
the prototype span, so a planted-cell oracle is unaffected by it): it is
what a class-agnostic bottom-up map can key on to find the planted cell,
while the clutter distractors act as false saliency it must learn to
reject.  Without such a cue no linear bottom-up map can localize the
planted cell - the per-cell detection SNR would be at most
signal_strength against unit background noise across n cells.

Everything is a deterministic function of the config seed via SplitMix64
with documented stream splitting: the master stream yields a prototype
seed, a distractor seed, a marker seed, then one sub-seed per example
(train split first, then val).  A split is generated in chunks of whole
examples, one stream row per example and one Box-Muller pass per chunk;
an example's values do not depend on which chunk it falls in.

pose_reg's keypoint targets are a function of the planted cell and the
grid alone (`gen_pose_targets`), so a split stores none: `config.pose`
only marks a split that pose_reg may train on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .autograd import ShapeError

# Fixed keypoint offsets (row, col) around the planted cell; keypoints
# falling outside the grid are masked out.
KEYPOINT_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1),
    (-2, 0), (2, 0), (0, -2), (0, 2), (-2, -2), (-2, 2), (2, -2), (2, 2),
)

# background normals that _gen_split draws at once: chunks of whole
# examples, one example per chunk once n * f is above it
CHUNK_VALUES = 2 ** 16


@dataclass(frozen=True)
class PlantedTaskConfig:
    n1: int = 7
    n2: int = 7
    f: int = 32
    K: int = 8
    train_samples: int = 2000
    val_samples: int = 500
    signal_strength: float = 3.0
    clutter_classes: int = 4
    seed: int = 7
    multi_label: bool = False
    pose: bool = False  # pose_reg may train on this task (targets: gen_pose_targets)

    def __post_init__(self):
        for name in ("n1", "n2", "f", "K", "train_samples", "val_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not np.isfinite(self.signal_strength):
            raise ValueError("signal_strength must be finite")
        if self.clutter_classes < 0:
            raise ValueError("clutter_classes must be nonnegative")
        if self.multi_label and self.n1 * self.n2 < 3:
            raise ValueError(f"multi_label plants up to 3 distinct cells; a "
                             f"{self.n1}x{self.n2} grid has {self.n1 * self.n2}")
        if self.K > self.f:
            raise ValueError(
                f"K={self.K} classes need K <= f={self.f} for distinguishable prototypes"
            )

    @property
    def n(self) -> int:
        return self.n1 * self.n2


@dataclass
class Dataset:
    """The arrays of a generated or loaded split; ValueError unless X holds
    (n, f) feature maps of its config, labels and planted have one entry
    per feature map, and every planted cell is a cell of the grid."""

    config: PlantedTaskConfig
    X: np.ndarray                 # (m, n, f)
    labels: np.ndarray            # (m,) int or (m, K) binary
    planted: np.ndarray           # (m,) the cell of the (lowest) true class

    def __post_init__(self):
        n, f = self.config.n, self.config.f
        if self.X.shape[1:] != (n, f):
            raise ValueError(f"feature maps of shape {self.X.shape} are not (m, {n}, {f})")
        m = len(self)
        if (len(self.labels), len(self.planted)) != (m, m):
            raise ValueError(f"{len(self.labels)} labels and {len(self.planted)} planted "
                             f"cells for {m} feature maps")
        bad = np.flatnonzero((self.planted < 0) | (self.planted >= n))
        if len(bad):
            raise ValueError(f"example {bad[0]}'s planted cell {self.planted[bad[0]]} "
                             f"is out of range [0, {n})")

    def __len__(self) -> int:
        return self.X.shape[0]


def _unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def class_prototypes(config: PlantedTaskConfig):
    """(prototypes, distractors, marker) derived from the config seed.

    Prototypes: K unit-norm rows, then centered across classes.
    Distractors: clutter_classes unit-norm rows, not centered.
    Marker: one unit-norm row, orthogonalized against the prototype span
    (needs K < f; with K == f the marker is left unprojected).
    """
    master = rng.u64_stream(config.seed, 3)
    protos = rng.normal_stream(int(master[0]), config.K * config.f).reshape(config.K, config.f)
    protos = _unit_rows(protos)
    protos = protos - protos.mean(axis=0, keepdims=True)
    if config.clutter_classes > 0:
        d = rng.normal_stream(int(master[1]), config.clutter_classes * config.f)
        distractors = _unit_rows(d.reshape(config.clutter_classes, config.f))
    else:
        distractors = np.zeros((0, config.f))
    marker = rng.normal_stream(int(master[2]), config.f)
    if config.K < config.f:
        q, _ = np.linalg.qr(protos.T)  # orthonormal basis of the prototype span
        marker = marker - q @ (q.T @ marker)
    marker = marker / np.linalg.norm(marker)
    return protos, distractors, marker


def _gen_split(sub, config, protos, distractors, marker):
    """The split whose example i is drawn from SplitMix64(sub[i]).

    Each example's stream holds 8 header u64s, 2 per clutter cell, then an
    even number for its n*f background normals.  The header gives one
    (class, cell) slot, or for multi-label data a count 1 + u % 3 and three
    slots, a taken cell moving on to the next free one; `planted` is the cell
    of the first slot of the lowest class, the one `train.true_classes` takes.
    Examples go through in chunks of at most CHUNK_VALUES normals, one
    stream row each.
    """
    m, n, f, K, C = len(sub), config.n, config.f, config.K, config.clutter_classes
    first, slots = (1, 3) if config.multi_label else (0, 1)
    width = 8 + 2 * C
    X = np.empty((m, n, f))
    classes = np.empty((m, slots), dtype=np.int64)
    cells = np.empty((m, slots), dtype=np.int64)
    counts = np.ones(m, dtype=np.int64)
    step = max(1, CHUNK_VALUES // (n * f))
    for lo in range(0, m, step):
        part = slice(lo, lo + step)
        Xc, cls, cell, num = X[part], classes[part], cells[part], counts[part]
        u = rng.u64_stream(sub[part], width + 2 * ((n * f + 1) // 2))
        rows, head = np.arange(len(u)), u[:, :width]
        Xc.reshape(len(u), n * f)[:] = rng.normals_from_u64(u[:, width:])[:, :n * f]
        cls[:] = head[:, first:first + 2 * slots:2] % K
        cell[:] = head[:, first + 1:first + 2 * slots:2] % n
        if config.multi_label:
            num[:] = 1 + head[:, 0] % 3
        for j in range(slots):
            on = rows[j < num]
            loc = cell[on, j]
            hit = (cell[on, :j] == loc[:, None]).any(axis=1)
            while hit.any():  # n >= 3 cells, so at most j probes
                loc = np.where(hit, (loc + 1) % n, loc)
                hit = (cell[on, :j] == loc[:, None]).any(axis=1)
            cell[on, j] = loc
            Xc[on, loc] += config.signal_strength * (protos[cls[on, j]] + marker)
        for j in range(C):
            at = cell[:, 0]  # a 1-cell grid puts its clutter on the planted cell
            if n > 1:
                at = (at + 1 + (head[:, 8 + 2 * j] % (n - 1)).astype(np.int64)) % n
            pattern = (head[:, 9 + 2 * j] % C).astype(np.int64)
            Xc[rows, at] += config.signal_strength * distractors[pattern]
    planted, labels = cells[:, 0], classes[:, 0]
    if config.multi_label:
        taken = np.arange(slots) < counts[:, None]  # the slots each example plants
        labels = np.zeros((m, K))
        labels[np.nonzero(taken)[0], classes[taken]] = 1.0
        lowest = np.argmin(np.where(taken, classes, K), axis=1)  # first slot of the lowest class
        planted = cells[np.arange(m), lowest]
    return Dataset(config=config, X=X, labels=labels, planted=planted)


def gen_splits(config: PlantedTaskConfig):
    """Yield the train split, then the val split, each made only when asked
    for; the generator keeps no reference to a split it has yielded, so a
    caller that drops one holds one split at a time.

    Both splits share one draw of the class, distractor and marker patterns.
    """
    protos, distractors, marker = class_prototypes(config)
    total = config.train_samples + config.val_samples
    sub = rng.u64_stream(config.seed, 3 + total)[3:]
    for part in (sub[:config.train_samples], sub[config.train_samples:]):
        yield _gen_split(part, config, protos, distractors, marker)


def gen_planted(config: PlantedTaskConfig):
    """The (train, val) datasets of gen_splits, both held at once;
    byte-identical for identical configs."""
    return tuple(gen_splits(config))


def gen_pose_targets(config: PlantedTaskConfig):
    """Keypoint targets per grid cell: (heatmaps (n, n, 16), masks (n, 16)).

    An example planted at cell p has heatmaps[p] and masks[p]: 16 Gaussian
    heatmaps (sigma 1, peak 1.0) centred KEYPOINT_OFFSETS away from p,
    those falling outside the grid masked out and zero.
    """
    rows, cols = np.divmod(np.arange(config.n), config.n2)
    # gauss[k, loc]: the Gaussian around grid cell k at every location
    d2 = (rows - rows[:, None]) ** 2 + (cols - cols[:, None]) ** 2
    gauss = np.exp(-d2 / 2.0)
    offsets = np.array(KEYPOINT_OFFSETS)
    kr = rows[:, None] + offsets[:, 0]                                 # (n, 16)
    kc = cols[:, None] + offsets[:, 1]
    masks = ((kr >= 0) & (kr < config.n1) & (kc >= 0) & (kc < config.n2)).astype(np.float64)
    cell = np.clip(kr, 0, config.n1 - 1) * config.n2 + np.clip(kc, 0, config.n2 - 1)
    heatmaps = gauss[cell[:, None, :], np.arange(config.n)[:, None]]  # (n, n, 16)
    heatmaps *= masks[:, None, :]  # off-grid keypoints read a clipped cell
    return heatmaps, masks


def nearest_prototype_accuracy(dataset: Dataset) -> float:
    """Oracle that reads only the planted cell: argmax_k proto_k . X[planted],
    with the prototypes that `class_prototypes` derives from the split's config."""
    if dataset.labels.ndim != 1:
        raise ValueError("oracle needs single-label data")
    prototypes = class_prototypes(dataset.config)[0]
    planted_feats = dataset.X[np.arange(len(dataset)), dataset.planted]
    preds = np.argmax(planted_feats @ prototypes.T, axis=1)
    return float(np.mean(preds == dataset.labels))


def metric_accuracy(scores, labels) -> float:
    """Fraction of argmax hits; ties break toward the lowest class index."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ShapeError(f"scores must be nonempty (m, K), got {scores.shape}")
    if labels.shape != (scores.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} vs scores {scores.shape}")
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def metric_map(scores, labels):
    """Mean average precision over classes with at least one positive.

    Per class, examples are ranked by descending score with ties broken by
    ascending example index; AP is the mean of precision-at-each-positive.
    Returns (mAP, skipped_classes).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    aps, skipped = [], []
    for k in range(scores.shape[1]):
        pos = labels[:, k] > 0
        if not pos.any():
            skipped.append(k)
            continue
        order = np.argsort(-scores[:, k], kind="stable")
        hits = labels[order, k] > 0
        cum_hits = np.cumsum(hits)
        precision = cum_hits[hits] / (np.flatnonzero(hits) + 1)
        aps.append(precision.mean())
    if not aps:
        raise ValueError("metric_map: no class has a positive example")
    return float(np.mean(aps)), skipped


def write_labels(path, dataset: Dataset) -> None:
    """Line format: example_index<TAB>label[,label...]<TAB>planted_loc."""
    with open(path, "w") as fh:
        for i in range(len(dataset)):
            if dataset.labels.ndim == 1:
                lab = str(int(dataset.labels[i]))
            else:
                lab = ",".join(str(k) for k in np.flatnonzero(dataset.labels[i]))
            fh.write(f"{i}\t{lab}\t{int(dataset.planted[i])}\n")


def read_text(path) -> str:
    """A UTF-8 text file's contents; ValueError, naming the file and the
    line, if it is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {lineno} is not UTF-8 text") from None


def read_labels(path, num_classes: int, multi_label: bool):
    """Inverse of write_labels; returns (labels, planted).

    Raises ValueError, naming the file and the line, unless every line
    is three tab-separated integer fields, every example index in [0, m)
    appears exactly once (m rows) and every class id is in
    [0, num_classes).
    """
    lines = [line.strip() for line in read_text(path).split("\n")]
    m = sum(map(bool, lines))
    planted = np.empty(m, dtype=np.int64)
    if multi_label:
        labels = np.zeros((m, num_classes))
    else:
        labels = np.empty(m, dtype=np.int64)
    seen = np.zeros(m, dtype=bool)
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            idx, lab, loc = line.split("\t")
            i, classes, planted_i = int(idx), [int(k) for k in lab.split(",")], int(loc)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} ({line!r}) is not "
                             "example_index<TAB>label[,label...]<TAB>planted_loc, "
                             "all integers") from None
        if not 0 <= i < m or seen[i]:
            raise ValueError(f"{path}: line {lineno}: example index {i} is out of "
                             f"range [0, {m}) or repeated")
        seen[i] = True
        if not all(0 <= k < num_classes for k in classes) or (
                not multi_label and len(classes) != 1):
            raise ValueError(f"{path}: line {lineno}: example {i} has label {lab!r}, "
                             f"not a class id in [0, {num_classes})")
        planted[i] = planted_i
        if multi_label:
            labels[i, classes] = 1.0
        else:
            labels[i] = classes[0]
    return labels, planted
