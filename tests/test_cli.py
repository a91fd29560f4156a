import hashlib
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import attnpool
import attnpool.train as train_mod
from attnpool import cli
from attnpool import config as cfgmod
from attnpool.atnp import read_atnp, write_atnp
from attnpool.checkpoint import load_checkpoint
from attnpool.cli import (EXIT_IO, EXIT_USAGE, EXIT_VALIDATION, load_split,
                          main)
from attnpool.images import normalize_map, read_pgm
from attnpool.synth import PlantedTaskConfig, gen_planted, gen_pose_targets
from attnpool.train import HEAD_KINDS, eval_forward, eval_scores, true_classes

SMALL = [
    "--set", "task.n1=3", "--set", "task.n2=3", "--set", "task.f=16",
    "--set", "task.classes=4", "--set", "task.train_samples=48",
    "--set", "task.val_samples=24",
]
SPLIT_FILES = ["features.atnp", "labels.tsv", "meta.txt"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data"))
    assert main(["gen", "--out", out] + SMALL) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = str(tmp_path_factory.mktemp("run"))
    rc = main(["train", "--data", data_dir, "--out", out] + SMALL +
              ["--set", "train.epochs=3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def pose_data_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pose_data"))
    assert main(["gen", "--out", out] + SMALL + ["--set", "task.pose=true"]) == 0
    return out


def _copy_dir(src, tmp_path):
    dst = str(tmp_path / "copy")
    shutil.copytree(src, dst)
    return dst


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_arg(self):
        assert main(["gen"]) == EXIT_USAGE

    def test_bad_threads(self, tmp_path):
        # the program is single-threaded and takes no --threads option
        for value in ("0", "2"):
            assert main(["--threads", value, "gen", "--out", str(tmp_path)]) == EXIT_USAGE
        assert not os.listdir(tmp_path)

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestGen:
    def test_outputs(self, data_dir):
        for split in ("train", "val"):
            d = os.path.join(data_dir, split)
            assert os.path.exists(os.path.join(d, "features.atnp"))
            assert os.path.exists(os.path.join(d, "labels.tsv"))
            assert os.path.exists(os.path.join(d, "meta.txt"))
        assert os.path.exists(os.path.join(data_dir, "resolved_config.txt"))
        X = read_atnp(os.path.join(data_dir, "train", "features.atnp"))
        assert X.shape == (48, 9, 16)

    def test_load_split_round_trip(self, data_dir):
        ds = load_split(os.path.join(data_dir, "train"))
        assert len(ds) == 48
        assert ds.config.K == 4 and ds.config.n == 9

    def test_gen_is_deterministic(self, data_dir, tmp_path):
        out2 = str(tmp_path / "again")
        assert main(["gen", "--out", out2] + SMALL) == 0
        for split in ("train", "val"):
            a = pathlib.Path(data_dir, split, "features.atnp").read_bytes()
            b = pathlib.Path(out2, split, "features.atnp").read_bytes()
            assert a == b

    def test_multi_label_grid_below_three_cells_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "tiny")
        rc = main(["gen", "--out", out, "--set", "task.n1=1", "--set", "task.n2=1",
                   "--set", "task.multi_label=true"])
        assert rc == EXIT_VALIDATION
        assert "multi_label" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_env_seed_changes_data(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ATTNPOOL_SEED", "314")
        out2 = str(tmp_path / "seeded")
        assert main(["gen", "--out", out2] + SMALL) == 0
        resolved = pathlib.Path(out2, "resolved_config.txt").read_text()
        assert "task.seed = 314" in resolved
        a = pathlib.Path(data_dir, "train", "features.atnp").read_bytes()
        b = pathlib.Path(out2, "train", "features.atnp").read_bytes()
        assert a != b

    def test_bad_override_is_validation_error(self, tmp_path):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--set", "task.bogus=1"])
        assert rc == EXIT_VALIDATION

    def test_files_are_those_of_gen_planted(self, tmp_path):
        """Split by split, gen writes the bytes that _write_split writes for
        gen_planted's datasets: features, labels and meta, and no pose
        targets, which follow from the planted cells."""
        settings = SMALL + ["--set", "task.pose=true"]
        out, ref = tmp_path / "gen", tmp_path / "ref"
        assert main(["gen", "--out", str(out)] + settings) == 0
        cfg = cfgmod.resolve(None, settings[1::2])
        for name, ds in zip(("train", "val"), gen_planted(cfgmod.build(PlantedTaskConfig, cfg))):
            cli._write_split(str(ref / name), ds)
        for name in ("train", "val"):
            files = sorted(os.listdir(out / name))
            assert files == sorted(os.listdir(ref / name)) == SPLIT_FILES
            for file in files:
                assert (out / name / file).read_bytes() == (ref / name / file).read_bytes()

    def test_holds_one_split_at_a_time(self, tmp_path):
        """With equal train and val sizes, gen's traced peak stays below the
        bytes of the two splits' arrays together: the train split is freed
        before the val split is made."""
        settings = ["--set", "task.train_samples=400", "--set", "task.val_samples=400",
                    "--set", "task.pose=true"]
        task = cfgmod.build(PlantedTaskConfig, cfgmod.resolve(None, settings[1::2]))
        both = sum(a.nbytes for ds in gen_planted(task) for a in (ds.X, ds.labels, ds.planted))
        tracemalloc.start()
        try:
            assert main(["gen", "--out", str(tmp_path / "gen")] + settings) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < both


class TestTrain:
    def test_artifacts(self, run_dir):
        for name in ("report.tsv", "summary.txt", "resolved_config.txt"):
            assert os.path.exists(os.path.join(run_dir, name))
        assert os.path.exists(os.path.join(run_dir, "checkpoint", "manifest.txt"))
        lines = pathlib.Path(run_dir, "report.tsv").read_text().splitlines()
        assert len(lines) == 3  # one row per epoch

    @pytest.mark.parametrize("setting", ["train.hdim=0", "train.hdim=-1",
                                         "train.sketch_dim=0", "train.sketch_dim=-1"])
    def test_size_below_one_exits_before_reading_data(self, data_dir, tmp_path,
                                                       monkeypatch, setting):
        def no_read(path):
            raise AssertionError(f"read {path}")
        monkeypatch.setattr(cli, "load_split", no_read)
        head = "pose_reg" if "hdim" in setting else "cbp"
        out = tmp_path / "out"
        rc = main(["train", "--data", data_dir, "--out", str(out), "--set", setting,
                   "--set", f"train.head={head}"] + SMALL)
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    def test_multi_label_labels_choose_the_loss(self, tmp_path, capsys):
        data, run = str(tmp_path / "data"), str(tmp_path / "run")
        assert main(["gen", "--out", data] + SMALL + ["--set", "task.multi_label=true"]) == 0
        assert main(["train", "--data", data, "--out", run, "--set", "train.epochs=2"]) == 0
        capsys.readouterr()
        # the run records the trained split's task keys (its meta.txt), not the defaults
        resolved = pathlib.Path(run, "resolved_config.txt").read_text().splitlines()
        assert "task.multi_label = True" in resolved and "task.f = 16" in resolved
        assert main(["eval", "--checkpoint", os.path.join(run, "checkpoint"),
                     "--data", os.path.join(data, "val")]) == 0
        assert capsys.readouterr().out.startswith("map=")

    @pytest.mark.parametrize("train_set,val_set", [
        ([], ["task.classes=8"]),      # val K=8, train K=4
        (["task.f=32"], []),           # val f=16, train f=32
        (["task.classes=8"], []),      # val K=4, train K=8
        ([], ["task.n1=4"]),           # a val grid of another size trains
    ], ids=["val_K8", "val_f16", "val_K4", "val_n12"])
    def test_val_split_f_or_k_differs_exits_3_before_training(self, tmp_path, capsys,
                                                               train_set, val_set):
        def split_dir(name, settings):
            out = str(tmp_path / name)
            assert main(["gen", "--out", out] + SMALL +
                        [arg for s in settings for arg in ("--set", s)]) == 0
            return out

        data, other = split_dir("data", train_set), split_dir("other", val_set)
        shutil.rmtree(os.path.join(data, "val"))
        shutil.copytree(os.path.join(other, "val"), os.path.join(data, "val"))
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["train", "--data", data, "--out", str(out), "--set", "train.epochs=1"])
        pairs = [load_split(os.path.join(data, split)).config for split in ("train", "val")]
        f, K = pairs[0].f, pairs[0].K
        val_f, val_K = pairs[1].f, pairs[1].K
        if (val_f, val_K) == (f, K):
            assert rc == 0 and out.exists()
            return
        assert rc == EXIT_VALIDATION and not out.exists()
        err = capsys.readouterr().err
        assert os.path.join(data, "val", "meta.txt") in err
        assert f"({val_f}, {val_K})" in err and f"({f}, {K})" in err

    @pytest.mark.parametrize("multi_split", ["train", "val"])
    def test_val_split_label_kind_differs_exits_3_before_training(self, tmp_path, capsys,
                                                                  multi_split):
        data, other = tmp_path / "data", tmp_path / "other"
        for path, multi in ((data, multi_split == "train"), (other, multi_split == "val")):
            assert main(["gen", "--out", str(path)] + SMALL +
                        ["--set", f"task.multi_label={multi}"]) == 0
        shutil.rmtree(data / "val")
        shutil.copytree(other / "val", data / "val")
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["train", "--data", str(data), "--out", str(out), "--set", "train.epochs=1"])
        assert rc == EXIT_VALIDATION and not out.exists()
        err = capsys.readouterr().err
        assert os.path.join(str(data), "val", "meta.txt") in err and "multi_label" in err

    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_passes_pose_targets_only_to_pose_reg(self, pose_data_dir, tmp_path, monkeypatch,
                                                  head):
        """Only pose_reg's training builds keypoint targets, once per run,
        from the train split's task; every batch's loss gets that table's
        rows at the batch's planted cells, and every other head's no pose."""
        built, poses = [], []

        def build(task):
            built.append(task)
            return gen_pose_targets(task)

        def batch_loss(tape, config, nodes, inputs, rows, yb, pose=None):
            poses.append(pose)
            return loss_of(tape, config, nodes, inputs, rows, yb, pose)

        loss_of = train_mod._batch_loss
        monkeypatch.setattr(train_mod, "gen_pose_targets", build)
        monkeypatch.setattr(train_mod, "_batch_loss", batch_loss)
        assert main(["train", "--data", pose_data_dir, "--out", str(tmp_path / "out"),
                     "--set", f"train.head={head}", "--set", "train.epochs=2",
                     "--set", "train.hdim=8"]) == 0
        train_ds = load_split(os.path.join(pose_data_dir, "train"))
        assert len(poses) == 4  # 2 epochs of 48 examples in batches of 32
        if head == "pose_reg":
            assert built == [train_ds.config]
            heatmaps = gen_pose_targets(train_ds.config)[0]
            for epoch in (0, 1):  # train.seed 0: epoch e shuffles with seed e
                targets = np.concatenate([pose[0] for pose in poses[2 * epoch:2 * epoch + 2]])
                order = train_mod._fisher_yates(48, epoch)
                np.testing.assert_array_equal(targets.reshape(48, 9, -1),
                                              heatmaps[train_ds.planted[order]])
        else:
            assert built == [] and poses == [None] * 4

    def test_pose_reg_on_split_without_pose_exits_3(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--data", data_dir, "--out", str(out),
                   "--set", "train.head=pose_reg", "--set", "train.epochs=1"])
        assert rc == EXIT_VALIDATION
        assert "task.pose" in capsys.readouterr().err and not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch_batch_and_cause(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--data", data_dir, "--out", str(out), "--set", "train.lr=1e8",
                   "--set", "train.epochs=10"])
        assert rc == EXIT_VALIDATION
        kv = dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())
        assert kv["diverged"] == "true"
        where = re.fullmatch(r"epoch (\d+) batch (\d+): (non-finite training loss|"
                             r"non-finite gradient for parameter '\w+')", kv["diverged_at"])
        assert where, kv["diverged_at"]
        epochs_done = len((out / "report.tsv").read_text().splitlines())
        assert int(where[1]) == epochs_done < 10
        assert int(where[2]) in (0, 1)  # 48 examples in batches of 32
        assert kv["diverged_at"] in capsys.readouterr().err

    def test_loss_setting_is_unknown(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--data", data_dir, "--out", str(out),
                   "--set", "train.loss=sigmoid"])
        assert rc == EXIT_VALIDATION
        assert "train.loss" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_is_io_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("key,value", [
        ("train.lr", "inf"), ("train.weight_decay", "nan"), ("train.lambda_pose", "nan"),
        ("task.signal_strength", "inf")])
    def test_non_finite_setting_exits_3_at_load(self, run_dir, data_dir, tmp_path, key, value,
                                                capsys):
        """From --set, and from the checkpoint manifest or meta.txt that
        records the setting, a non-finite value exits 3 before any run."""
        section, name = key.split(".")
        out = tmp_path / "out"
        argv = (["gen"] if section == "task" else ["train", "--data", data_dir])
        assert main(argv + ["--out", str(out), "--set", f"{key}={value}"]) == EXIT_VALIDATION
        assert not out.exists()
        if section == "task":
            ckpt = os.path.join(run_dir, "checkpoint")
            split = _copy_dir(os.path.join(data_dir, "val"), tmp_path)
            path, sep = os.path.join(split, "meta.txt"), " = "
        else:
            ckpt = _copy_dir(os.path.join(run_dir, "checkpoint"), tmp_path)
            split = os.path.join(data_dir, "val")
            path, sep = os.path.join(ckpt, "manifest.txt"), "="
        lines = [f"{name}{sep}{value}" if line.startswith(name + sep) else line
                 for line in pathlib.Path(path).read_text().splitlines()]
        assert f"{name}{sep}{value}" in lines
        pathlib.Path(path).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_VALIDATION
        assert path in capsys.readouterr().err


class TestEval:
    def test_eval_prints_metrics(self, run_dir, data_dir, tmp_path, capsys):
        out = str(tmp_path / "metrics.txt")
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", os.path.join(data_dir, "val"), "--out", out])
        assert rc == 0
        kv = dict(line.split("=") for line in pathlib.Path(out).read_text().splitlines())
        assert 0.0 <= float(kv["accuracy"]) <= 1.0
        assert 0.0 <= float(kv["localization"]) <= 1.0

    def test_missing_checkpoint_is_io_error(self, data_dir, tmp_path):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none"),
                   "--data", os.path.join(data_dir, "val")])
        assert rc == EXIT_IO

    def test_tampered_manifest_is_validation_error(self, run_dir, data_dir, tmp_path):
        import shutil
        ckpt = str(tmp_path / "ckpt")
        shutil.copytree(os.path.join(run_dir, "checkpoint"), ckpt)
        mpath = os.path.join(ckpt, "manifest.txt")
        text = pathlib.Path(mpath).read_text().replace("tensor.A0.dims=16x4",
                                                       "tensor.A0.dims=16x5")
        pathlib.Path(mpath).write_text(text)
        rc = main(["eval", "--checkpoint", ckpt,
                   "--data", os.path.join(data_dir, "val")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("edit", ["planted", "rows"])
    def test_corrupt_labels_are_validation_errors(self, run_dir, data_dir, tmp_path,
                                                  edit, capsys):
        import shutil
        split = str(tmp_path / "val")
        shutil.copytree(os.path.join(data_dir, "val"), split)
        lpath = os.path.join(split, "labels.tsv")
        lines = pathlib.Path(lpath).read_text().splitlines()
        if edit == "planted":  # cell 9 of a 3x3 grid
            lines[5] = "\t".join(lines[5].split("\t")[:2] + ["9"])
        else:  # one row fewer than feature maps
            lines = lines[:-1]
        pathlib.Path(lpath).write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", split])
        assert rc == EXIT_VALIDATION
        assert lpath in capsys.readouterr().err

    @pytest.mark.parametrize("name,new,names_line", [
        ("labels.tsv", "1\t\t6", True),          # an empty label
        ("labels.tsv", "1\t3", True),            # two fields
        ("labels.tsv", "1\t3\t6\t0", True),      # four fields
        ("labels.tsv", "x1\t3\t6", True),        # a non-integer index
        ("labels.tsv", "1\t3\t6.5", True),       # a non-integer planted cell
        ("labels.tsv", "1\t\xe9\t6", True),      # not UTF-8 (the file is written as Latin-1)
        ("meta.txt", "bogus = 1", True),         # an unknown key
        ("meta.txt", "classes = x", True),       # a value that does not parse
        ("meta.txt", "classes = 17", False),     # K = 17 > f = 16, no one line at fault
    ], ids=["empty-label", "two-fields", "four-fields", "index", "planted", "latin-1",
            "unknown-key", "bad-value", "K-above-f"])
    def test_bad_split_text_names_file_and_line(self, run_dir, data_dir, tmp_path,
                                                name, new, names_line, capsys):
        """Line 2 of a split's text file (example 1's row, or meta's classes
        key) replaced: exit 3 with the file, and the line, on stderr."""
        split = _copy_dir(os.path.join(data_dir, "val"), tmp_path)
        path = os.path.join(split, name)
        lines = pathlib.Path(path).read_text().splitlines()
        lines[1] = new
        with open(path, "w", encoding="latin-1") as fh:
            fh.write("\n".join(lines) + "\n")
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", split])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert path in err
        assert ("line 2" in err) == names_line

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, run_dir, data_dir, tmp_path, value, capsys):
        split = _copy_dir(os.path.join(data_dir, "val"), tmp_path)
        path = os.path.join(split, "features.atnp")
        X = read_atnp(path)
        X[3, 2, 1] = value
        write_atnp(path, X)
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", split])
        assert rc == EXIT_VALIDATION
        assert f"{path}: non-finite feature value" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(24, 9, 15), (24, 8, 16)], ids=["f", "n"])
    def test_features_disagreeing_with_meta_rejected(self, run_dir, data_dir, tmp_path, shape,
                                                     capsys):
        # meta.txt says a 3x3 grid of f=16 features
        split = _copy_dir(os.path.join(data_dir, "val"), tmp_path)
        path = os.path.join(split, "features.atnp")
        write_atnp(path, np.zeros(shape))
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", split])
        assert rc == EXIT_VALIDATION
        assert f"{path}: shape {shape} is not (m, 9, 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    def test_overflowing_feature_rejected(self, run_dir, data_dir, tmp_path, command, capsys):
        # finite, so it loads, but the scores overflow to inf
        split = _copy_dir(os.path.join(data_dir, "val"), tmp_path)
        path = os.path.join(split, "features.atnp")
        X = read_atnp(path)
        X[0, 0, 0] = 1e300
        write_atnp(path, X)
        ckpt = os.path.join(run_dir, "checkpoint")
        argv = [command, "--checkpoint", ckpt, "--data", split]
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(argv + (["--out", str(tmp_path / "maps")] if command == "heatmap" else []))
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert path in err and ckpt in err

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    def test_overflowing_feature_exits_3_without_warnings(self, run_dir, data_dir, tmp_path,
                                                           command):
        split = _copy_dir(os.path.join(data_dir, "val"), tmp_path)
        path = os.path.join(split, "features.atnp")
        X = read_atnp(path)
        X[0, 0, 0] = 1e300
        write_atnp(path, X)
        argv = [command, "--checkpoint", os.path.join(run_dir, "checkpoint"), "--data", split]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + (["--out", str(tmp_path / "maps")] if command == "heatmap" else []))
        assert rc == EXIT_VALIDATION

class TestOldLayoutSplits:
    """Splits that an older `gen` wrote carry per-example pose targets in
    pose.atnp and pose_mask.atnp.  Those files are ignored, intact or not:
    every command reads such a split as the same split without them."""

    @staticmethod
    def _old_layout(src, dst, corrupt):
        """A copy of data directory src in the older layout, the pose files
        holding each example's rows of the per-cell table (the bytes an
        older gen wrote), or corrupted ones."""
        shutil.copytree(src, dst)
        for name in ("train", "val"):
            split = os.path.join(dst, name)
            ds = load_split(split)
            heatmaps, masks = gen_pose_targets(ds.config)
            hm, mk = heatmaps[ds.planted], masks[ds.planted]
            if corrupt == "range":
                hm, mk = np.full_like(hm, 1.5), np.full_like(mk, 0.5)
            elif corrupt == "shape":
                hm, mk = hm[:, :, :5], mk[:-1]
            write_atnp(os.path.join(split, "pose.atnp"), hm)
            write_atnp(os.path.join(split, "pose_mask.atnp"), mk)
        return dst

    @staticmethod
    def _outputs(data, run, maps, capsys):
        """(eval's stdout, heatmap's PGM bytes) of checkpoint run on data's val split."""
        ckpt, val = os.path.join(run, "checkpoint"), os.path.join(data, "val")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--data", val]) == 0
        printed = capsys.readouterr().out
        assert main(["heatmap", "--checkpoint", ckpt, "--data", val, "--out", str(maps),
                     "--count", "3"]) == 0
        return printed, {p.name: p.read_bytes() for p in sorted(maps.iterdir())}

    @staticmethod
    def _run_bytes(run):
        files = ["report.tsv"] + [os.path.join("checkpoint", name) for name in
                                  sorted(os.listdir(os.path.join(run, "checkpoint")))]
        return {name: pathlib.Path(run, name).read_bytes() for name in files}

    @pytest.mark.parametrize("corrupt", ["intact", "range", "shape"])
    def test_pose_files_are_ignored(self, pose_data_dir, tmp_path, corrupt, capsys):
        old = self._old_layout(pose_data_dir, str(tmp_path / "old"), corrupt)
        for name in ("train", "val"):
            a, b = (load_split(os.path.join(data, name)) for data in (old, pose_data_dir))
            assert a.config == b.config
            for x, y in ((a.X, b.X), (a.labels, b.labels), (a.planted, b.planted)):
                np.testing.assert_array_equal(x, y)
        runs = []
        for data in (pose_data_dir, old):
            run = str(tmp_path / f"run{len(runs)}")
            assert main(["train", "--data", data, "--out", run, "--set", "train.head=pose_reg",
                         "--set", "train.epochs=2", "--set", "train.hdim=8"]) == 0
            runs.append(run)
        assert self._run_bytes(runs[0]) == self._run_bytes(runs[1])
        assert (self._outputs(pose_data_dir, runs[0], tmp_path / "maps0", capsys)
                == self._outputs(old, runs[0], tmp_path / "maps1", capsys))


class TestCheckpointMismatch:
    """eval and heatmap reject a checkpoint that does not fit the split."""

    @staticmethod
    def _run(command, ckpt, split, tmp_path):
        argv = [command, "--checkpoint", ckpt, "--data", split]
        return main(argv + (["--out", str(tmp_path / "maps")] if command == "heatmap" else []))

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    def test_manifest_head_disagrees_with_tensors(self, run_dir, data_dir, tmp_path,
                                                  command, capsys):
        ckpt = _copy_dir(os.path.join(run_dir, "checkpoint"), tmp_path)
        mpath = os.path.join(ckpt, "manifest.txt")
        for head in ("avg_pool", "per_class"):
            text = pathlib.Path(run_dir, "checkpoint", "manifest.txt").read_text()
            pathlib.Path(mpath).write_text(text.replace("head=attention", f"head={head}"))
            rc = self._run(command, ckpt, os.path.join(data_dir, "val"), tmp_path)
            assert rc == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert ckpt in err and head in err

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    @pytest.mark.parametrize("setting", ["task.f=12", "task.classes=3"])
    def test_split_f_or_k_differs(self, run_dir, tmp_path, command, setting, capsys):
        data = str(tmp_path / "other")
        assert main(["gen", "--out", data] + SMALL + ["--set", setting]) == 0
        ckpt = os.path.join(run_dir, "checkpoint")
        rc = self._run(command, ckpt, os.path.join(data, "val"), tmp_path)
        assert rc == EXIT_VALIDATION
        assert ckpt in capsys.readouterr().err


class TestHeatmap:
    def test_exports_valid_pgms(self, run_dir, data_dir, tmp_path):
        out = str(tmp_path / "maps")
        rc = main(["heatmap", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", os.path.join(data_dir, "val"),
                   "--out", out, "--count", "2"])
        assert rc == 0
        for i in range(2):
            for kind in ("combined", "top_down", "bottom_up"):
                grid = read_pgm(os.path.join(out, f"ex{i:04d}_{kind}.pgm"))
                assert grid.shape == (3, 3)
            mont = read_pgm(os.path.join(out, f"ex{i:04d}_montage.pgm"))
            assert mont.shape == (3, 9)  # three 3x3 panels side by side

    def test_multi_label_draws_the_top_scoring_class(self, tmp_path):
        """On a multi-label split each combined map is eval_forward's c of
        the example's top-scoring class."""
        data, run, out = (str(tmp_path / name) for name in ("data", "run", "maps"))
        assert main(["gen", "--out", data] + SMALL + ["--set", "task.multi_label=true"]) == 0
        assert main(["train", "--data", data, "--out", run, "--set", "train.epochs=2"]) == 0
        val, ckpt, count = os.path.join(data, "val"), os.path.join(run, "checkpoint"), 12
        assert main(["heatmap", "--checkpoint", ckpt, "--data", val, "--out", out,
                     "--count", str(count)]) == 0
        ds = load_split(val)
        params, tconf = load_checkpoint(ckpt, ds.config.f, ds.config.K)
        X = ds.X[:count]
        top = np.argmax(eval_scores(params, tconf, X), axis=1)
        assert np.any(top != true_classes(ds)[:count])  # not the first positive label
        _, maps = eval_forward(params, tconf, X, classes=top)
        for i in range(count):
            grid = read_pgm(os.path.join(out, f"ex{i:04d}_combined.pgm"))
            np.testing.assert_array_equal(grid, normalize_map(maps["c"][i].reshape(3, 3)))

    def test_zero_count_writes_nothing(self, run_dir, data_dir, tmp_path):
        out = str(tmp_path / "maps")
        rc = main(["heatmap", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", os.path.join(data_dir, "val"),
                   "--out", out, "--count", "0"])
        assert rc == 0 and os.listdir(out) == []

    def test_negative_count_rejected(self, run_dir, data_dir, tmp_path, capsys):
        out = tmp_path / "maps"
        rc = main(["heatmap", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", os.path.join(data_dir, "val"), "--out", str(out),
                   "--count", "-3"])
        assert rc == EXIT_VALIDATION
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_cbp_head_has_no_heatmaps(self, data_dir, tmp_path):
        run = str(tmp_path / "cbp_run")
        rc = main(["train", "--data", data_dir, "--out", run] + SMALL +
                  ["--set", "train.epochs=1", "--set", "train.head=cbp",
                   "--set", "train.sketch_dim=16"])
        assert rc == 0
        rc = main(["heatmap", "--checkpoint", os.path.join(run, "checkpoint"),
                   "--data", os.path.join(data_dir, "val"),
                   "--out", str(tmp_path / "maps")])
        assert rc == EXIT_VALIDATION


class TestBench:
    def test_writes_csv(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--out", out]) == 0
        lines = pathlib.Path(out).read_text().splitlines()
        assert lines[0].startswith("kind,n,f,K,P")
        assert len(lines) > 30
        # the timing rows: each carries its own P (0 for full) and the formula's FLOPs
        assert [line.rsplit(",", 3)[0] for line in lines[-3:]] == [
            "full,196,512,100,0,155189248", "rank_p,196,512,100,1,503808",
            "rank_p,196,512,100,5,2519040"]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_attnpool_is_imported_before_numpy():
    """conftest.py imports the package before this module imports numpy,
    so the package's BLAS pin holds in any subset of the suite."""
    assert not attnpool.NUMPY_LOADED_FIRST


def _pose_reg_checkpoints(tmp_path, runs) -> list:
    """Checkpoint digests of pose_reg (3 epochs, seed 101) trained on a
    400/100-example pose task, one subprocess per (first import, extra
    environment) in runs, with the BLAS thread variables unset unless
    extra sets them."""
    data = str(tmp_path / "data")
    assert main(["gen", "--out", data, "--set", "task.pose=true",
                 "--set", "task.train_samples=400", "--set", "task.val_samples=100"]) == 0
    src = os.path.dirname(os.path.dirname(attnpool.__file__))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("ATTNPOOL_SEED",)}
    base["PYTHONPATH"] = src
    checkpoints = []
    for first, extra in runs:
        out = str(tmp_path / f"run{len(checkpoints)}")
        code = f"import {first}, sys; from attnpool.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", code, "train", "--data", data,
                        "--out", out, "--set", "train.head=pose_reg", "--set", "train.epochs=3",
                        "--set", "train.seed=101"], env={**base, **extra}, check=True,
                       stdout=subprocess.DEVNULL)
        checkpoints.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(pathlib.Path(out, "checkpoint").iterdir())})
    return checkpoints


def test_checkpoint_bytes_do_not_depend_on_blas_thread_env(tmp_path):
    """The package pins BLAS to one thread unless the environment sets a
    count, so a run with the thread variables unset writes the bytes of
    a run at OPENBLAS_NUM_THREADS=1.  On a 1-core machine BLAS uses one
    thread either way, and this test shows nothing."""
    runs = [("attnpool", {}), ("attnpool", {"OPENBLAS_NUM_THREADS": "1"})]
    checkpoints = _pose_reg_checkpoints(tmp_path, runs)
    assert checkpoints[0] == checkpoints[1]


def test_checkpoint_bytes_do_not_depend_on_import_order(tmp_path):
    """A program that imports numpy before attnpool, with the thread
    variables unset, writes the bytes of one that imports attnpool first:
    the package then sets BLAS's thread count at run time.  On a 1-core
    machine BLAS uses one thread either way, and this test shows nothing."""
    checkpoints = _pose_reg_checkpoints(tmp_path, [("attnpool", {}), ("numpy", {})])
    assert checkpoints[0] == checkpoints[1]


def test_numpy_first_without_a_blas_setter_warns_once_naming_the_count():
    """Where numpy's BLAS is not scipy-openblas (here: no library found),
    importing attnpool after numpy cannot set BLAS's thread count, and
    says so once."""
    code = ("import glob, numpy, warnings\n"
            "glob.glob = lambda *args, **kwargs: []\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    import attnpool, attnpool.cli\n"
            "print(*(w.message for w in caught), sep='\\n')\n")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(attnpool.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert len(out) == 1 and "no known thread setter" in out[0]
    assert f"one per core: {os.cpu_count()}" in out[0]
