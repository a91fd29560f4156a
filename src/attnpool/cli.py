"""Command-line surface: gen | train | eval | heatmap | bench | selftest.

Exit codes: 0 success, 1 usage, 2 I/O, 3 validation, 4 selftest failure.
The ATTNPOOL_SEED environment variable overrides config seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench as benchmod
from . import config as cfgmod
from .atnp import AtnpError, read_atnp, write_atnp
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .images import export_pgm, montage, normalize_map
from .selftest import run_all
from .synth import (Dataset, PlantedTaskConfig, gen_planted, gen_pose_targets,
                    read_labels, write_labels)
from .tensors import ShapeError
from .train import (TrainConfig, eval_forward, evaluate, train, write_report,
                    write_summary)

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_SELFTEST = 4


class UsageError(Exception):
    pass


def _task_config(cfg: dict) -> PlantedTaskConfig:
    return PlantedTaskConfig(
        n1=cfg["task.n1"], n2=cfg["task.n2"], f=cfg["task.f"], K=cfg["task.classes"],
        train_samples=cfg["task.train_samples"], val_samples=cfg["task.val_samples"],
        signal_strength=cfg["task.signal_strength"],
        clutter_classes=cfg["task.clutter_classes"],
        seed=cfg["task.seed"], multi_label=cfg["task.multi_label"])


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        head=cfg["train.head"], rank=cfg["train.rank"], lr=cfg["train.lr"],
        momentum=cfg["train.momentum"], weight_decay=cfg["train.weight_decay"],
        batch_size=cfg["train.batch_size"], epochs=cfg["train.epochs"],
        seed=cfg["train.seed"], lambda_pose=cfg["train.lambda_pose"],
        loss=cfg["train.loss"], hdim=cfg["train.hdim"],
        sketch_dim=cfg["train.sketch_dim"], use_bias=cfg["train.use_bias"])


def _write_split(path: str, ds: Dataset, cfg: dict) -> None:
    os.makedirs(path, exist_ok=True)
    write_atnp(os.path.join(path, "features.atnp"), ds.X)
    write_labels(os.path.join(path, "labels.tsv"), ds)
    if ds.pose_heatmaps is not None:
        write_atnp(os.path.join(path, "pose.atnp"), ds.pose_heatmaps)
        write_atnp(os.path.join(path, "pose_mask.atnp"), ds.pose_masks)
    with open(os.path.join(path, "meta.txt"), "w") as fh:
        fh.write("[task]\n")
        for key in sorted(cfg):
            if key.startswith("task."):
                fh.write(f"{key.split('.', 1)[1]} = {cfg[key]}\n")


def load_split(path: str) -> Dataset:
    meta_path = os.path.join(path, "meta.txt")
    with open(meta_path) as fh:
        meta = cfgmod.parse_config_text(fh.read())
    cfg = dict(cfgmod.DEFAULTS)
    cfg.update(meta)
    task = _task_config(cfg)
    X = read_atnp(os.path.join(path, "features.atnp"))
    labels_path = os.path.join(path, "labels.tsv")
    labels, planted = read_labels(labels_path, task.K, task.multi_label)
    if len(labels) != X.shape[0]:
        raise ValueError(f"{labels_path}: {len(labels)} rows for {X.shape[0]} feature maps")
    if np.any((planted < 0) | (planted >= task.n)):
        raise ValueError(f"{labels_path}: planted cell out of range [0, {task.n})")
    ds = Dataset(config=task, X=X, labels=labels, planted=planted)
    pose_path = os.path.join(path, "pose.atnp")
    if os.path.exists(pose_path):
        ds.pose_heatmaps = read_atnp(pose_path)
        ds.pose_masks = read_atnp(os.path.join(path, "pose_mask.atnp"))
    return ds


def cmd_gen(args) -> int:
    cfg = cfgmod.resolve(args.config, args.set)
    task = _task_config(cfg)
    train_ds, val_ds = gen_planted(task)
    if cfg["task.pose"]:
        train_ds = gen_pose_targets(train_ds)
        val_ds = gen_pose_targets(val_ds)
    os.makedirs(args.out, exist_ok=True)
    _write_split(os.path.join(args.out, "train"), train_ds, cfg)
    _write_split(os.path.join(args.out, "val"), val_ds, cfg)
    with open(os.path.join(args.out, "resolved_config.txt"), "w") as fh:
        fh.write(cfgmod.serialize(cfg))
    print(f"wrote {len(train_ds)} train / {len(val_ds)} val examples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = cfgmod.resolve(args.config, args.set)
    tconf = _train_config(cfg)
    train_ds = load_split(os.path.join(args.data, "train"))
    val_ds = load_split(os.path.join(args.data, "val"))
    report = train(tconf, train_ds, val_ds)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "resolved_config.txt"), "w") as fh:
        fh.write(cfgmod.serialize(cfg))
    write_report(os.path.join(args.out, "report.tsv"), report)
    write_summary(os.path.join(args.out, "summary.txt"), report)
    extra = {"rank": tconf.rank, "loss": tconf.loss, "hdim": tconf.hdim,
             "sketch_dim": tconf.sketch_dim, "use_bias": tconf.use_bias,
             "lambda_pose": tconf.lambda_pose}
    save_checkpoint(os.path.join(args.out, "checkpoint"), report.params,
                    head=tconf.head, seed=tconf.seed, extra=extra)
    if report.diverged:
        print("training diverged; partial report written", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"final val metric {report.final_val_metric:.4f}, "
          f"localization {report.final_localization:.4f}")
    return 0


def _config_from_manifest(manifest: dict) -> TrainConfig:
    return TrainConfig(
        head=manifest["head"], rank=int(manifest.get("rank", 1)),
        seed=int(manifest.get("seed", 0)), loss=manifest.get("loss", "softmax"),
        hdim=int(manifest.get("hdim", 128)),
        sketch_dim=int(manifest.get("sketch_dim", 64)),
        lambda_pose=float(manifest.get("lambda_pose", 0.1)),
        use_bias=manifest.get("use_bias", "False") in ("True", "true"),
        epochs=0)


def cmd_eval(args) -> int:
    params, manifest = load_checkpoint(args.checkpoint)
    tconf = _config_from_manifest(manifest)
    ds = load_split(args.data)
    result = evaluate(params, tconf, ds)
    lines = []
    for key in ("accuracy", "map", "localization"):
        if key in result:
            lines.append(f"{key}={result[key]:.6f}")
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    print(out, end="")
    return 0


def cmd_heatmap(args) -> int:
    params, manifest = load_checkpoint(args.checkpoint)
    tconf = _config_from_manifest(manifest)
    if tconf.head == "cbp":
        raise ShapeError("the cbp head has no spatial attention maps to export")
    ds = load_split(args.data)
    n1, n2 = ds.config.n1, ds.config.n2
    count = min(args.count, len(ds))
    scores, maps = eval_forward(params, tconf, ds.X[:count])
    os.makedirs(args.out, exist_ok=True)
    for i in range(count):
        if ds.labels.ndim == 1:
            k = int(ds.labels[i])
        else:
            k = int(np.argmax(scores[i]))
        combined, top_down, bottom_up = (maps[key][i, :, k].reshape(n1, n2)
                                         for key in ("c", "t", "h"))
        export_pgm(normalize_map(combined), os.path.join(args.out, f"ex{i:04d}_combined.pgm"))
        export_pgm(normalize_map(top_down), os.path.join(args.out, f"ex{i:04d}_top_down.pgm"))
        export_pgm(normalize_map(bottom_up), os.path.join(args.out, f"ex{i:04d}_bottom_up.pgm"))
        export_pgm(montage([combined, top_down, bottom_up]),
                   os.path.join(args.out, f"ex{i:04d}_montage.pgm"))
    print(f"wrote heatmaps for {count} examples to {args.out}")
    return 0


def cmd_bench(args) -> int:
    rows = benchmod.sweep_rows()
    for kind, P in (("full", 0), ("rank_p", 1), ("rank_p", 5)):
        timing = benchmod.bench_wallclock(kind, n=196, f=512, K=100, P=max(P, 1))
        timing["flops_analytic"] = (
            benchmod.flops_full_second_order(196, 512, 100) if kind == "full"
            else benchmod.flops_rank_p(196, 512, 100, max(P, 1)))
        rows.append(timing)
    benchmod.write_csv(args.out, rows)
    print(f"wrote {len(rows)} bench rows to {args.out}")
    return 0


def cmd_selftest(args) -> int:
    ok = run_all(verbose=True)
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
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (cfgmod.ConfigError, CheckpointError, AtnpError, ShapeError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
