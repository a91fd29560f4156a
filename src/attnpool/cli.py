"""Command-line surface: gen | train | eval | heatmap | bench | selftest.

Exit codes: 0 success, 1 usage, 2 I/O, 3 validation, 4 selftest failure.
The ATTNPOOL_SEED environment variable overrides config seeds.

A split directory holds features.atnp, labels.tsv and meta.txt; pose_reg's
keypoint targets follow from the planted cells in labels.tsv, so no file
holds them (other files in the directory are ignored).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench as benchmod
from . import config as cfgmod
from .atnp import read_atnp, write_atnp
from .autograd import ShapeError
from .checkpoint import load_checkpoint, save_checkpoint
from .images import export_pgm, montage, normalize_map
from .selftest import run_all
from .synth import (Dataset, PlantedTaskConfig, gen_splits, read_labels, read_text,
                    write_labels)
from .train import (TrainConfig, eval_forward, eval_scores, evaluate, train, write_report,
                    write_summary)

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_SELFTEST = 4


def _write_split(path: str, ds: Dataset) -> None:
    os.makedirs(path, exist_ok=True)
    write_atnp(os.path.join(path, "features.atnp"), ds.X)
    write_labels(os.path.join(path, "labels.tsv"), ds)
    with open(os.path.join(path, "meta.txt"), "w") as fh:
        fh.write("[task]\n")
        for key, value in sorted(cfgmod.keys_of(ds.config).items()):
            fh.write(f"{key.split('.', 1)[1]} = {value}\n")


def load_split(path: str) -> Dataset:
    """A split directory written by `gen`; ValueError, naming the file
    (and the line or example where there is one), for a bad meta.txt or
    labels.tsv, and for data that do not fit its meta.txt."""
    meta_path = os.path.join(path, "meta.txt")
    text = read_text(meta_path)
    try:
        task = cfgmod.build(PlantedTaskConfig, cfgmod.parse_config_text(text))
    except ValueError as exc:  # a bad line (ConfigError names it), or a task out of range
        raise ValueError(f"{meta_path}: {exc}") from None
    features_path = os.path.join(path, "features.atnp")
    X = read_atnp(features_path)
    if X.shape[1:] != (task.n, task.f):
        raise ValueError(f"{features_path}: shape {X.shape} is not (m, {task.n}, {task.f})")
    if not (np.isfinite(X.min()) and np.isfinite(X.max())):  # NaN propagates to both
        raise ValueError(f"{features_path}: non-finite feature value")
    labels_path = os.path.join(path, "labels.tsv")
    labels, planted = read_labels(labels_path, task.K, task.multi_label)
    try:
        return Dataset(config=task, X=X, labels=labels, planted=planted)
    except ValueError as exc:  # labels or planted cells that do not fit the features
        raise ValueError(f"{labels_path}: {exc}") from None


def _check_scores(scores: np.ndarray, split: str, checkpoint: str) -> None:
    """ValueError, naming the split's features and the checkpoint, when a
    score overflowed."""
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"{os.path.join(split, 'features.atnp')}: a feature value is "
                         f"too large to score with checkpoint {checkpoint} (non-finite scores)")


def cmd_gen(args) -> int:
    """Write the train split, then generate and write the val split, so
    one split is in memory at a time.  A config that build() rejects
    leaves no --out directory."""
    cfg = cfgmod.resolve(args.config, args.set)
    task = cfgmod.build(PlantedTaskConfig, cfg)
    splits = gen_splits(task)
    os.makedirs(args.out, exist_ok=True)
    for name in ("train", "val"):
        _write_split(os.path.join(args.out, name), next(splits))
    with open(os.path.join(args.out, "resolved_config.txt"), "w") as fh:
        fh.write(cfgmod.serialize(cfg))
    print(f"wrote {task.train_samples} train / {task.val_samples} val examples to {args.out}")
    return 0


def cmd_train(args) -> int:
    """Read and validate every file of both splits, check that the val
    split fits the train split, then train."""
    cfg = cfgmod.resolve(args.config, args.set)
    tconf = cfgmod.build(TrainConfig, cfg)
    train_ds = load_split(os.path.join(args.data, "train"))
    val_ds = load_split(os.path.join(args.data, "val"))
    tasks = train_ds.config, val_ds.config
    val_meta = os.path.join(args.data, "val", "meta.txt")
    pairs = [(task.f, task.K) for task in tasks]
    if pairs[1] != pairs[0]:  # n may differ: scores pool over locations
        raise ValueError(f"{val_meta}: the val split has (f, K) = {pairs[1]}, "
                         f"the train split {pairs[0]}")
    if tasks[1].multi_label != tasks[0].multi_label:
        raise ValueError(f"{val_meta}: the val split has multi_label = {tasks[1].multi_label}, "
                         f"the train split {tasks[0].multi_label}")
    cfg.update(cfgmod.keys_of(train_ds.config))  # record the task trained on, not defaults
    report = train(tconf, train_ds, val_ds)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "resolved_config.txt"), "w") as fh:
        fh.write(cfgmod.serialize(cfg))
    write_report(os.path.join(args.out, "report.tsv"), report)
    write_summary(os.path.join(args.out, "summary.txt"), report)
    save_checkpoint(os.path.join(args.out, "checkpoint"), report.params, tconf)
    if report.diverged:
        print(f"training diverged at {report.diverged_at}; partial report written",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"final val metric {report.final_val_metric:.4f}, "
          f"localization {report.final_localization:.4f}")
    return 0


def cmd_eval(args) -> int:
    ds = load_split(args.data)
    params, tconf = load_checkpoint(args.checkpoint, ds.config.f, ds.config.K)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_scores reports overflow
        result = evaluate(params, tconf, ds)
    _check_scores(result["scores"], args.data, args.checkpoint)
    out = "".join(f"{key}={result[key]:.6f}\n"
                  for key in ("accuracy", "map", "localization") if key in result)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    print(out, end="")
    return 0


def cmd_heatmap(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be 0 or more, got {args.count}")
    ds = load_split(args.data)
    params, tconf = load_checkpoint(args.checkpoint, ds.config.f, ds.config.K)
    if tconf.head == "cbp":
        raise ShapeError("the cbp head has no spatial attention maps to export")
    n1, n2 = ds.config.n1, ds.config.n2
    count = min(args.count, len(ds))
    X = ds.X[:count]
    with np.errstate(over="ignore", invalid="ignore"):  # _check_scores reports overflow
        # the true class, or for multi-label data the top-scoring one
        classes = (ds.labels[:count] if ds.labels.ndim == 1
                   else np.argmax(eval_scores(params, tconf, X), axis=1))
        scores, maps = eval_forward(params, tconf, X, classes=classes)
    _check_scores(scores, args.data, args.checkpoint)
    os.makedirs(args.out, exist_ok=True)
    for i in range(count):
        panels = [maps[key][i].reshape(n1, n2) for key in ("c", "t", "h")]
        for name, grid in zip(("combined", "top_down", "bottom_up"), panels):
            export_pgm(normalize_map(grid), os.path.join(args.out, f"ex{i:04d}_{name}.pgm"))
        export_pgm(montage(panels), os.path.join(args.out, f"ex{i:04d}_montage.pgm"))
    print(f"wrote heatmaps for {count} examples to {args.out}")
    return 0


def cmd_bench(args) -> int:
    rows = benchmod.sweep_rows() + [
        benchmod.bench_wallclock(kind, *benchmod.TIMING_SIZE, P=P)
        for kind, P in (("full", 0), ("rank_p", 1), ("rank_p", 5))]
    benchmod.write_csv(args.out, rows)
    print(f"wrote {len(rows)} bench rows to {args.out}")
    return 0


def cmd_selftest(args) -> int:
    ok = run_all()
    return 0 if ok else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnpool",
        description="Attentional pooling as low-rank second-order pooling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted-attention dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a scoring head")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="a split directory (train or val)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("heatmap", help="export attention heatmaps as PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("bench", help="FLOP accounting and wall-clock benchmarks")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("selftest", help="run the full verification suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
