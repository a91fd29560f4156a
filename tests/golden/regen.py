"""Golden CLI outputs: the SHA-256 of every file that a fixed set of tiny
`attnpool` runs writes, recorded in manifest.tsv next to this script.

The runs: `gen` of a 3x3, f=8, K=4 task with pose targets, single-label
and multi-label; `train` of every head (2 epochs, rank 3, sketch_dim 16),
of pose_reg with use_bias, with lambda_pose = 0 and on a copy of the
single-label task whose training maps are zero at their first cell (so
relu's pre-activations there are exactly 0 at the first step), and of
multi-label attention and pose_reg, each followed by `eval` and (but for
cbp) `heatmap --count 2` on its val split; and `bench`.  Timings are left
out: summary.txt loses its wall_clock_s line and bench.csv keeps its
first seven columns.

The manifest's header names the numpy version, the OpenBLAS build and
core and BLAS's thread count, since kernels for another core may sum in
another order.  tests/test_golden.py reruns the runs in a temporary
directory and compares.  Regenerate the manifest, from the repo root,
when a change means to change outputs:

    PYTHONPATH=src python tests/golden/regen.py
"""

import attnpool  # noqa: F401  (before numpy: BLAS runs at one thread)

import contextlib
import ctypes
import hashlib
import io
import os
import shutil
import sys
import tempfile

import numpy as np

from attnpool.atnp import read_atnp, write_atnp
from attnpool.cli import main
from attnpool.train import HEAD_KINDS

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifest.tsv")
TASK = ["task.n1=3", "task.n2=3", "task.f=8", "task.classes=4", "task.train_samples=64",
        "task.val_samples=32", "task.pose=true"]
TRAIN = ["train.epochs=2", "train.rank=3", "train.sketch_dim=16"]
# (run directory, data directory, extra train settings)
RUNS = ([(head, "single", [f"train.head={head}"]) for head in HEAD_KINDS] + [
    ("pose_reg_bias", "single", ["train.head=pose_reg", "train.use_bias=true"]),
    ("pose_reg_no_pose", "single", ["train.head=pose_reg", "train.lambda_pose=0"]),
    ("pose_reg_zero_cells", "zero_cells", ["train.head=pose_reg"]),
    ("multi_attention", "multi", ["train.head=attention"]),
    ("multi_pose_reg", "multi", ["train.head=pose_reg"]),
])


def platform() -> dict:
    """What the outputs' bits depend on besides the code ("none" for what
    numpy's BLAS, if not scipy-openblas, does not tell)."""
    found, lib = {"numpy": np.__version__}, attnpool._openblas()
    for key, name, restype in (
            ("openblas_config", "scipy_openblas_get_config64_", ctypes.c_char_p),
            ("openblas_core", "scipy_openblas_get_corename64_", ctypes.c_char_p),
            ("blas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int)):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = (), restype
        value = fn() if fn is not None else "none"
        found[key] = value.decode() if isinstance(value, bytes) else str(value)
    return found


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(list(argv))
    if rc != 0:
        raise RuntimeError(f"attnpool {' '.join(argv)} exited {rc}")


def _sets(settings) -> list:
    return [arg for s in settings for arg in ("--set", s)]


def run_all(out) -> None:
    """Write every golden output under the directory out."""
    out = str(out)
    for name, extra in (("single", []), ("multi", ["task.multi_label=true"])):
        _cli("gen", "--out", os.path.join(out, name), *_sets(TASK + extra))
    shutil.copytree(os.path.join(out, "single"), os.path.join(out, "zero_cells"))
    features = os.path.join(out, "zero_cells", "train", "features.atnp")
    X = read_atnp(features)
    X[:, 0] = 0.0
    write_atnp(features, X)
    for run, data, extra in RUNS:
        data, run = os.path.join(out, data), os.path.join(out, "runs", run)
        val = os.path.join(data, "val")
        _cli("train", "--data", data, "--out", run, *_sets(TRAIN + extra))
        checkpoint = os.path.join(run, "checkpoint")
        _cli("eval", "--checkpoint", checkpoint, "--data", val,
             "--out", os.path.join(run, "eval.txt"))
        if "train.head=cbp" not in extra:
            _cli("heatmap", "--checkpoint", checkpoint, "--data", val,
                 "--out", os.path.join(run, "heatmap"), "--count", "2")
        _rewrite(os.path.join(run, "summary.txt"),
                 lambda line: "" if line.startswith("wall_clock_s=") else line)
    bench = os.path.join(out, "bench.csv")
    _cli("bench", "--out", bench)
    _rewrite(bench, lambda line: ",".join(line.split(",")[:7]) + "\n")


def _rewrite(path, edit) -> None:
    """Replace each line of a text file by edit(line)."""
    with open(path) as fh:
        lines = [edit(line) for line in fh]
    with open(path, "w") as fh:
        fh.writelines(lines)


def digests(out) -> dict:
    """SHA-256 of every file under out, by its path relative to out."""
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def read_manifest(path=MANIFEST) -> tuple:
    """(platform, digests) as recorded in the manifest."""
    header, files = {}, {}
    with open(path) as fh:
        for line in fh:
            key, value = line.rstrip("\n").split("\t")
            if key.startswith("# "):
                header[key[2:]] = value
            else:
                files[key] = value
    return header, files


def write_manifest(path=MANIFEST) -> int:
    with tempfile.TemporaryDirectory() as out:
        run_all(out)
        files = digests(out)
    with open(path, "w") as fh:
        fh.writelines(f"# {key}\t{value}\n" for key, value in platform().items())
        fh.writelines(f"{name}\t{files[name]}\n" for name in sorted(files))
    return len(files)


if __name__ == "__main__":
    print(f"wrote {write_manifest()} digests to {MANIFEST}", file=sys.stderr)
