"""Seeded corruption loops over the files `gen` and `train` write.

Every file of a split (features, labels and meta) and every
checkpoint file (manifest and tensor blobs) is truncated at a random offset,
given a duplicated random span, or has one random bit flipped.  `attnpool
eval` and `attnpool heatmap` must then either run (exit 0) or reject the
input (exit 3); they must never raise, and the message of a rejected
split or checkpoint names one of its files.
"""

import os
import random

import pytest

from attnpool.cli import EXIT_VALIDATION, main

TINY = [
    "--set", "task.n1=3", "--set", "task.n2=3", "--set", "task.f=6",
    "--set", "task.classes=3", "--set", "task.train_samples=12",
    "--set", "task.val_samples=6", "--set", "task.pose=true",
]
SPLIT_FILES = ["features.atnp", "labels.tsv", "meta.txt"]
TRIALS = 20  # per file and corruption kind


def truncate(blob, rng):
    return blob[:rng.randrange(len(blob))]


def duplicate_span(blob, rng):
    i = rng.randrange(len(blob))
    j = rng.randrange(i + 1, len(blob) + 1)
    return blob[:j] + blob[i:j] + blob[j:]


def flip_bit(blob, rng):
    pos = rng.randrange(8 * len(blob))
    out = bytearray(blob)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    data, run = str(root / "data"), str(root / "run")
    assert main(["gen", "--out", data] + TINY) == 0
    assert main(["train", "--data", data, "--out", run] + TINY +
                ["--set", "train.epochs=1"]) == 0
    return os.path.join(data, "val"), os.path.join(run, "checkpoint"), str(root / "maps")


@pytest.mark.parametrize("target", ["split", "checkpoint"])
def test_corrupt_inputs_exit_0_or_3(tiny_run, target, capsys):
    split, ckpt, maps = tiny_run
    commands = [["eval", "--checkpoint", ckpt, "--data", split],
                ["heatmap", "--checkpoint", ckpt, "--data", split,
                 "--out", maps, "--count", "1"]]
    for argv in commands:
        assert main(argv) == 0
    directory = split if target == "split" else ckpt
    names = sorted(os.listdir(directory))
    if target == "split":
        assert names == sorted(SPLIT_FILES)
    rng = random.Random(target)
    for name in names:
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            for _ in range(TRIALS):
                for corrupt in (truncate, duplicate_span, flip_bit):
                    with open(path, "wb") as fh:
                        fh.write(corrupt(blob, rng))
                    for argv in commands:
                        label = f"{name}, {corrupt.__name__}, {argv[0]}"
                        try:
                            rc = main(argv)
                        except Exception as exc:
                            pytest.fail(f"{label}: raised {exc!r}")
                        assert rc in (0, EXIT_VALIDATION), f"{label}: exit {rc}"
                        err = capsys.readouterr().err
                        if rc:  # the rejection names the split's or the checkpoint's file
                            assert (split if target == "split" else ckpt) in err, \
                                f"{label}: {err!r}"
        finally:
            with open(path, "wb") as fh:
                fh.write(blob)
