"""Per-layer tracing by wrapping the program's functions from outside.

Each hook names a function by module and attribute.  Installing it
replaces that function object in every loaded ``attnpool`` module that
bound it (``cli`` imports ``train``, ``evaluate``, ``eval_scores`` and
``combined_maps`` by name, ``checkpoint`` imports the ATNP reader and
writer), or on the class for methods.  A hook whose target no longer
exists is recorded as absent, so a refactor of the program does not
break the benchmark.

Spans nest: a span's self time is its duration minus its children's.
A span is not counted again while a span of the same metric is open,
so recursion and helper-to-helper calls within one layer count once.
Inside a ``train`` span, the training phases are also accumulated per
head as ``train.<head>.<phase>_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric).  "Class.method" patches the class.
HOOKS = (
    ("attnpool.synth", "gen_planted", "synth.gen_s"),
    ("attnpool.synth", "gen_pose_targets", "synth.gen_s"),
    ("attnpool.synth", "read_labels", "synth.labels_io_s"),
    ("attnpool.synth", "write_labels", "synth.labels_io_s"),
    ("attnpool.atnp", "read_atnp", "atnp.read_s"),
    ("attnpool.atnp", "write_atnp", "atnp.write_s"),
    ("attnpool.checkpoint", "save_checkpoint", "checkpoint.save_s"),
    ("attnpool.checkpoint", "load_checkpoint", "checkpoint.load_s"),
    ("attnpool.train", "train", "train.total_s"),
    ("attnpool.train", "init_head_params", "train.init_s"),
    ("attnpool.train", "_fisher_yates", "train.shuffle_s"),
    ("attnpool.train", "_batch_loss", "train.forward_s"),
    ("attnpool.autograd", "Tape.backward", "autograd.backward_s"),
    ("attnpool.train", "sgd_step", "train.optimizer_s"),
    ("attnpool.train", "eval_scores", "train.val_scores_s"),
    ("attnpool.train", "combined_maps", "train.maps_s"),
    ("attnpool.train", "_cbp_features", "sketch.features_s"),
    ("attnpool.sketch", "cbp_pool", "sketch.cbp_pool"),
    ("attnpool.images", "normalize_map", "images.export_s"),
    ("attnpool.images", "montage", "images.export_s"),
    ("attnpool.images", "export_pgm", "images.export_s"),
    ("attnpool.cli", "_panel_maps", "cli.panel_maps_s"),
)

# metric of a span inside train() -> phase name of its per-head split
TRAIN_PHASES = {
    "train.init_s": "init",
    "train.shuffle_s": "shuffle",
    "train.forward_s": "forward",
    "autograd.backward_s": "backward",
    "train.optimizer_s": "optimizer",
    "train.val_scores_s": "val_scores",
    "train.maps_s": "maps",
}
PHASES = tuple(TRAIN_PHASES.values()) + ("batch_other",)


class _Frame:
    __slots__ = ("metric", "children")

    def __init__(self, metric):
        self.metric = metric
        self.children = 0.0


class Tracer:
    """Accumulates span times and counts while its hooks are installed."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.head = None
        self.absent = []
        self._stack = []
        self._undo = []

    def install(self):
        found = []
        for modname, attr, metric in HOOKS:
            cls_name, _, name = attr.rpartition(".")
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                owner = None
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, name, None)
            if not callable(orig):
                self.absent.append(f"{modname}.{attr}")
                continue
            found.append((owner if cls_name else None, orig, metric))
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "attnpool" or key.startswith("attnpool.")]
        for cls, orig, metric in found:
            wrapper = self._wrap(orig, metric)
            for target in [cls] if cls is not None else loaded:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._undo.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def _wrap(self, fn, metric):
        tracer = self
        after = _AFTER.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(metric)
            stack = tracer._stack
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer._close(frame, dt)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _close(self, frame, dt):
        stack = self._stack
        if stack:
            stack[-1].children += dt
        if any(f.metric == frame.metric for f in stack):
            return
        self.times[frame.metric] += dt
        self.counts[frame.metric + ".calls"] += 1
        if frame.metric == "train.total_s":
            self._phase("batch_other", dt - frame.children)
        elif frame.metric in TRAIN_PHASES and any(f.metric == "train.total_s" for f in stack):
            self._phase(TRAIN_PHASES[frame.metric], dt)

    def _phase(self, phase, dt):
        if phase == "batch_other":
            self.times["train.batch_other_s"] += dt
        if self.head is not None:
            self.times[f"train.{self.head}.{phase}_s"] += dt


def _after_read(tracer, args, result):
    tracer.counts["atnp.bytes_read"] += _size(args[0])


def _after_write(tracer, args, result):
    tracer.counts["atnp.bytes_written"] += _size(args[0])


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _after_backward(tracer, args, result):
    """Exact counts off the tape once the reverse sweep is done.

    Backward matmul work: for each matmul node whose output gradient is
    non-zero, 2*m*k*n flops per input that holds a gradient array.
    """
    tape, loss = args[0], args[1]
    nodes = getattr(tape, "nodes", [])
    tracer.counts["autograd.steps"] += 1
    tracer.counts["autograd.nodes"] += len(nodes)
    flops = grad_bytes = 0
    for node in nodes:
        g = getattr(node, "grad", None)
        if g is not None:
            grad_bytes += np.asarray(g).nbytes
    for node in nodes[: getattr(loss, "id", len(nodes) - 1) + 1]:
        if getattr(node, "op", None) != "matmul" or not np.any(node.grad):
            continue
        a, b = (nodes[i] for i in node.parents)
        (m, k), n = a.value.shape, b.value.shape[1]
        flops += sum(2 * m * k * n for p in (a, b) if p.grad is not None)
    tracer.counts["autograd.grad_bytes"] += grad_bytes
    tracer.counts["autograd.backward_matmul_flops"] += flops


_AFTER = {
    "atnp.read_s": _after_read,
    "atnp.write_s": _after_write,
    "autograd.backward_s": _after_backward,
}
