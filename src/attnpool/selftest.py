"""Built-in verification suite: oracle equivalences, gradient checks,
sketch statistics, FLOP accounting, and determinism round-trips.

The oracle equivalences score through `train.eval_forward`, the pass
whose scores and maps evaluation reports, against the explicit
second-order form in `pooling`.

This is the repository's health signal: `attnpool selftest` runs every
check here and exits nonzero on any failure.  The same functions back
the pytest acceptance suite.
"""

from __future__ import annotations

import io
import os
import tempfile
import time
from dataclasses import replace

import numpy as np

from . import bench, config as cfgmod
from .atnp import read_atnp, write_atnp
from .autograd import Tape, finite_diff_check
from .checkpoint import load_checkpoint, save_checkpoint
from .images import export_pgm, normalize_map, read_pgm
from .pooling import score_second_order
from .sketch import SketchParams, cbp_pool
from .synth import PlantedTaskConfig, gen_planted, gen_pose_targets, read_labels, write_labels
from .train import (HEAD_KINDS, NUM_POSE_CHANNELS, TrainConfig, _batch_loss, eval_forward,
                    init_head_params, train, write_report)


def random_instances(count: int):
    """Seeded random (X, a, b) triples with n, f in [1, 16]."""
    rng = np.random.default_rng(123)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 17))
        f = int(rng.integers(1, 17))
        out.append((rng.standard_normal((n, f)),
                    rng.standard_normal(f),
                    rng.standard_normal(f)))
    return out


def graph_scores(head: str, params: dict, X, k: int = 0, **config):
    """Sum-form scores (K,) and the class-k maps (n, 1) of one feature map
    X (n, f), read from `eval_forward`, the pass whose scores and maps
    validation, eval and heatmap report; its logits are these scores / n."""
    scores, maps = eval_forward(params, TrainConfig(head=head, epochs=0, **config), X[None], [k])
    return scores[0] * X.shape[0], {key: m.reshape(-1, 1) for key, m in maps.items()}


def check_rank1_equivalence(count: int = 1000) -> tuple:
    worst = 0.0
    for X, a, b in random_instances(count):
        cheap = graph_scores("attention", {"A0": a[:, None], "b0": b[:, None]}, X)[0][0]
        oracle = score_second_order(X, np.outer(a, b))
        err = abs(cheap - oracle) / (1.0 + abs(cheap))
        worst = max(worst, err)
    return worst <= 1e-9, f"rank-1 graph vs explicit second order, worst rel err {worst:.3e}"


def check_symmetry_and_combined(count: int = 1000) -> tuple:
    worst_sym, worst_comb = 0.0, 0.0
    for X, a, b in random_instances(count):
        s_ab, maps = graph_scores("attention", {"A0": a[:, None], "b0": b[:, None]}, X)
        s_ba, _ = graph_scores("attention", {"A0": b[:, None], "b0": a[:, None]}, X)
        both = float((X @ a) @ (X @ b))
        scale = 1.0 + abs(both)
        worst_sym = max(worst_sym, abs(s_ab[0] - s_ba[0]) / scale,
                        abs(s_ab[0] - both) / scale)
        via_map = maps["c"].sum(axis=0)  # K = 1: class 0's map
        worst_comb = max(worst_comb, float(np.max(np.abs(s_ab - via_map) / (1.0 + np.abs(s_ab)))))
    ok = worst_sym <= 1e-12 and worst_comb <= 1e-12
    return ok, f"symmetry worst {worst_sym:.3e}, combined-map worst {worst_comb:.3e}"


def check_rank_p_oracle(ranks=(1, 2, 5), count: int = 50) -> tuple:
    rng = np.random.default_rng(7)
    worst = 0.0
    for P in ranks:
        for _ in range(count):
            n = int(rng.integers(1, 10))
            f = int(rng.integers(1, 10))
            K = int(rng.integers(1, 5))
            X = rng.standard_normal((n, f))
            A_p = tuple(rng.standard_normal((f, K)) for _ in range(P))
            b_p = tuple(rng.standard_normal(f) for _ in range(P))
            params = {}
            for p in range(P):
                params[f"A{p}"], params[f"b{p}"] = A_p[p], b_p[p][:, None]
            s, _ = graph_scores("rank_p", params, X, rank=P)
            for k in range(K):
                W = sum(np.outer(A[:, k], b) for A, b in zip(A_p, b_p))
                oracle = score_second_order(X, W)
                worst = max(worst, abs(s[k] - oracle) / (1.0 + abs(oracle)))
    return worst <= 1e-9, f"rank-P graph vs explicit second order, worst rel err {worst:.3e}"


def head_gradient_error(head: str, seed: int, multi_label: bool = False, **config) -> float:
    """Finite-difference error of one head's batch loss at small dims, on
    a shuffled batch of a split's rows, as train() passes it: not one
    ascending run, so the batch is a copy; targets follow its order.

    multi_label draws random (B, K) targets, so the loss is sigmoid
    cross-entropy; `config` overrides TrainConfig fields, e.g. use_bias=True.
    """
    B, n1, n2, f, K = 3, 2, 2, 5, 3
    n, idx = n1 * n2, np.array([2, 0, 1])
    cfg = replace(TrainConfig(head=head, rank=2, hdim=4, sketch_dim=7, seed=seed,
                              lambda_pose=0.3, epochs=0), **config)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((B, n, f))
    if multi_label:
        yb = (rng.uniform(size=(B, K)) < 0.5).astype(np.float64)[idx]
    else:
        yb = rng.integers(0, K, size=B)[idx]
    if head == "cbp":  # its inputs are sketch features
        X = rng.standard_normal((B, cfg.sketch_dim))
    pose = None
    if head == "pose_reg":
        c = NUM_POSE_CHANNELS
        pose = (rng.uniform(0, 1, size=(B, n, c))[idx].reshape(B * n, c),
                np.sqrt(np.full((B * n, c), 1.0 / (n * c))))
    params0 = init_head_params(cfg, f, K)
    names = sorted(params0)

    def f_loss(plist):
        tape = Tape()
        nodes = {name: tape.leaf(p) for name, p in zip(names, plist)}
        loss = _batch_loss(tape, cfg, nodes, X, idx, yb, pose)
        tape.backward(loss)
        return float(loss.value), [nodes[name].grad for name in names]

    return finite_diff_check(f_loss, [params0[name] for name in names])


def check_gradients(seeds: int = 20) -> tuple:
    worst = 0.0
    for head in HEAD_KINDS:
        for seed in range(seeds):
            worst = max(worst, head_gradient_error(head, seed))
    return worst <= 1e-6, f"gradient checks over all heads, worst rel err {worst:.3e}"


def check_sketch_unbiased(f: int = 16, d: int = 64, trials: int = 10000) -> tuple:
    rng = np.random.default_rng(99)
    x = rng.standard_normal(f)
    y = rng.standard_normal(f)
    target = float(np.dot(x, y)) ** 2
    vals = np.empty(trials)
    for seed in range(trials):
        params = SketchParams.from_seed(f, d, seed)
        vals[seed] = float(np.dot(cbp_pool(x[None], params), cbp_pool(y[None], params)))
    se = vals.std(ddof=1) / np.sqrt(trials)
    dev = abs(vals.mean() - target)
    return dev <= 3 * se, (
        f"TensorSketch mean {vals.mean():.4f} vs <x,y>^2 {target:.4f} "
        f"(|dev| {dev:.4f} <= 3se {3 * se:.4f})")


def check_flops() -> tuple:
    for row in bench.sweep_rows():
        if row["flops_analytic"] != row["flops_measured"]:
            return False, f"FLOP mismatch at {row}"
    full = bench.flops_full_second_order(49, 2048, 393)
    rank1 = bench.flops_rank_p(49, 2048, 393, 1)
    if (full, rank1) != (3_707_764_736, 2_011_136):
        return False, f"analytic counts off: {full}, {rank1}"
    t_full = bench.bench_wallclock("full", *bench.TIMING_SIZE)
    t_rank = bench.bench_wallclock("rank_p", *bench.TIMING_SIZE, P=1)
    ratio = t_full["ns_median"] / t_rank["ns_median"]
    ok = ratio >= 10.0
    return ok, (f"FLOP counters exact; full/rank-1 analytic ratio "
                f"{full / rank1:.1f}, wall-clock ratio {ratio:.1f}x")


def _dataset_bytes(ds) -> bytes:
    buf = io.BytesIO()
    for arr in (ds.X, np.asarray(ds.labels, dtype=np.float64), ds.planted.astype(np.float64)):
        buf.write(np.ascontiguousarray(arr).tobytes())
    return buf.getvalue()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_determinism() -> tuple:
    task = PlantedTaskConfig(n1=3, n2=3, f=8, K=4, train_samples=64,
                             val_samples=32, seed=11)
    tr1, va1 = gen_planted(task)
    tr2, va2 = gen_planted(task)
    if _dataset_bytes(tr1) != _dataset_bytes(tr2) or _dataset_bytes(va1) != _dataset_bytes(va2):
        return False, "gen_planted is not byte-identical across runs"

    cfg = TrainConfig(head="attention", epochs=3, seed=5, batch_size=16)
    with tempfile.TemporaryDirectory() as tmp:
        blobs = []
        for run in range(2):
            rep = train(cfg, tr1, va1)
            rpath = os.path.join(tmp, f"report{run}.tsv")
            write_report(rpath, rep)
            cdir = os.path.join(tmp, f"ckpt{run}")
            save_checkpoint(cdir, rep.params, cfg)
            blobs.append((_read(rpath), b"".join(
                _read(os.path.join(cdir, name)) for name in sorted(os.listdir(cdir)))))
        if blobs[0] != blobs[1]:
            return False, "train runs with identical configs differ"

        # format round-trips
        apath = os.path.join(tmp, "x.atnp")
        arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        write_atnp(apath, arr)
        back = read_atnp(apath)
        write_atnp(apath + "2", back)
        if _read(apath) != _read(apath + "2"):
            return False, "ATNP round-trip not byte-exact"

        img = normalize_map(np.array([[1.0, 2.0], [3.0, 4.0]]))
        ppath = os.path.join(tmp, "m.pgm")
        export_pgm(img, ppath)
        grid = read_pgm(ppath)
        export_pgm(normalize_map(grid.astype(np.float64) * (3 / 255) + 1), ppath + "2")
        if _read(ppath) != _read(ppath + "2"):
            return False, "PGM round-trip not byte-exact"

        lpath = os.path.join(tmp, "labels.tsv")
        write_labels(lpath, va1)
        labels, planted = read_labels(lpath, task.K, multi_label=False)
        if not (np.array_equal(labels, va1.labels) and np.array_equal(planted, va1.planted)):
            return False, "label file round-trip failed"

        params, _ = load_checkpoint(os.path.join(tmp, "ckpt0"), task.f, task.K)
        for name, arr in params.items():
            if not np.array_equal(arr, rep.params[name]):
                return False, f"checkpoint round-trip differs for {name}"

        resolved = cfgmod.resolve(overrides=("train.epochs=3",), env={})
        if cfgmod.serialize(resolved) != cfgmod.serialize(
                cfgmod.resolve(overrides=("train.epochs=3",), env={})):
            return False, "config resolution is not pure"
    return True, "gen/train byte-identical; ATNP/PGM/labels/checkpoint round-trips exact"


def check_pose_targets() -> tuple:
    heatmaps, masks = gen_pose_targets(PlantedTaskConfig(n1=4, n2=4, f=8, K=4))
    visible = masks == 1.0
    peak_ok = bool(np.all(np.abs(heatmaps.max(axis=1)[visible] - 1.0) < 1e-12))
    return peak_ok, "pose target heatmaps peak at 1.0 on visible keypoints"


def run_all() -> bool:
    checks = [  # (name, summary family or None, check)
        ("equivalence:rank1", "EQUIVALENCE", check_rank1_equivalence),
        ("equivalence:symmetry+combined", "EQUIVALENCE", check_symmetry_and_combined),
        ("equivalence:rank_p", "EQUIVALENCE", check_rank_p_oracle),
        ("gradients:all_heads", "GRADIENTS", check_gradients),
        ("sketch:unbiasedness", "SKETCH", check_sketch_unbiased),
        ("flops:accounting", "EQUIVALENCE", check_flops),
        ("determinism:formats", "EQUIVALENCE", check_determinism),
        ("pose:targets", None, check_pose_targets),
    ]
    all_ok = True
    family_ok = {family: True for _, family, _ in checks if family}
    t0 = time.perf_counter()
    for name, family, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        if family:
            family_ok[family] &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    summary = " / ".join(
        f"{fam} {'OK' if ok else 'FAIL'}" for fam, ok in family_ok.items())
    print(summary)
    print(f"selftest finished in {time.perf_counter() - t0:.1f}s")
    return all_ok
