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
from attnpool import cli
from attnpool import config as cfgmod
from attnpool.atnp import read_atnp, write_atnp
from attnpool.cli import (EXIT_IO, EXIT_USAGE, EXIT_VALIDATION, load_split,
                          main)
from attnpool.images import read_pgm
from attnpool.synth import PlantedTaskConfig, gen_planted
from attnpool.train import HEAD_KINDS

SMALL = [
    "--set", "task.n1=3", "--set", "task.n2=3", "--set", "task.f=16",
    "--set", "task.classes=4", "--set", "task.train_samples=48",
    "--set", "task.val_samples=24",
]


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
            a = open(os.path.join(data_dir, split, "features.atnp"), "rb").read()
            b = open(os.path.join(out2, split, "features.atnp"), "rb").read()
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
        resolved = open(os.path.join(out2, "resolved_config.txt")).read()
        assert "task.seed = 314" in resolved
        a = open(os.path.join(data_dir, "train", "features.atnp"), "rb").read()
        b = open(os.path.join(out2, "train", "features.atnp"), "rb").read()
        assert a != b

    def test_bad_override_is_validation_error(self, tmp_path):
        rc = main(["gen", "--out", str(tmp_path / "x"), "--set", "task.bogus=1"])
        assert rc == EXIT_VALIDATION

    def test_pose_flag_writes_pose_blobs(self, tmp_path):
        out = str(tmp_path / "posed")
        assert main(["gen", "--out", out] + SMALL + ["--set", "task.pose=true"]) == 0
        ds = load_split(os.path.join(out, "train"))
        assert ds.pose_heatmaps is not None and ds.pose_masks is not None

    def test_files_are_those_of_gen_planted(self, tmp_path):
        """Split by split, gen writes the bytes that _write_split writes for
        gen_planted's datasets."""
        settings = SMALL + ["--set", "task.pose=true"]
        out, ref = tmp_path / "gen", tmp_path / "ref"
        assert main(["gen", "--out", str(out)] + settings) == 0
        cfg = cfgmod.resolve(None, settings[1::2])
        for name, ds in zip(("train", "val"), gen_planted(cfgmod.build(PlantedTaskConfig, cfg))):
            cli._write_split(str(ref / name), ds, cfg)
        for name in ("train", "val"):
            files = sorted(os.listdir(out / name))
            assert files == sorted(os.listdir(ref / name)) and "pose.atnp" in files
            for file in files:
                assert (out / name / file).read_bytes() == (ref / name / file).read_bytes()

    def test_holds_one_split_at_a_time(self, tmp_path):
        """With equal train and val sizes, gen's traced peak stays below the
        bytes of the two splits' arrays together: the train split is freed
        before the val split is made."""
        settings = ["--set", "task.train_samples=400", "--set", "task.val_samples=400",
                    "--set", "task.pose=true"]
        task = cfgmod.build(PlantedTaskConfig, cfgmod.resolve(None, settings[1::2]))
        both = sum(a.nbytes for ds in gen_planted(task)
                   for a in (ds.X, ds.labels, ds.planted, ds.pose_heatmaps, ds.pose_masks))
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
        lines = open(os.path.join(run_dir, "report.tsv")).read().splitlines()
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
        resolved = open(os.path.join(run, "resolved_config.txt")).read().splitlines()
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
        """Validation never reads pose targets, and training reads them
        only for pose_reg: train() gets no other pose arrays."""
        class Captured(Exception):
            pass

        def capture(tconf, train_ds, val_ds):
            raise Captured(train_ds, val_ds)

        monkeypatch.setattr(cli, "train", capture)
        with pytest.raises(Captured) as info:
            main(["train", "--data", pose_data_dir, "--out", str(tmp_path / "out"),
                  "--set", f"train.head={head}"])
        train_ds, val_ds = info.value.args
        assert val_ds.pose_heatmaps is None and val_ds.pose_masks is None
        if head == "pose_reg":
            split = os.path.join(pose_data_dir, "train")
            np.testing.assert_array_equal(train_ds.pose_heatmaps,
                                          read_atnp(os.path.join(split, "pose.atnp")))
            np.testing.assert_array_equal(train_ds.pose_masks,
                                          read_atnp(os.path.join(split, "pose_mask.atnp")))
        else:
            assert train_ds.pose_heatmaps is None and train_ds.pose_masks is None
        assert len(train_ds) == 48 and len(val_ds) == 24

    def test_bad_val_pose_heatmaps_exit_3(self, pose_data_dir, tmp_path, capsys):
        """The val pose targets, which training drops, are still read and
        checked first."""
        data = _copy_dir(pose_data_dir, tmp_path)
        path = os.path.join(data, "val", "pose.atnp")
        write_atnp(path, np.full_like(read_atnp(path), 1.5))
        out = tmp_path / "out"
        assert main(["train", "--data", data, "--out", str(out)]) == EXIT_VALIDATION
        assert path in capsys.readouterr().err and not out.exists()

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
                 for line in open(path).read().splitlines()]
        assert f"{name}{sep}{value}" in lines
        open(path, "w").write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_VALIDATION
        assert path in capsys.readouterr().err


class TestEval:
    def test_eval_prints_metrics(self, run_dir, data_dir, tmp_path, capsys):
        out = str(tmp_path / "metrics.txt")
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", os.path.join(data_dir, "val"), "--out", out])
        assert rc == 0
        kv = dict(line.split("=") for line in open(out).read().splitlines())
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
        text = open(mpath).read().replace("tensor.A0.dims=16x4",
                                          "tensor.A0.dims=16x5")
        open(mpath, "w").write(text)
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
        lines = open(lpath).read().splitlines()
        if edit == "planted":  # cell 9 of a 3x3 grid
            lines[5] = "\t".join(lines[5].split("\t")[:2] + ["9"])
        else:  # one row fewer than feature maps
            lines = lines[:-1]
        open(lpath, "w").write("\n".join(lines) + "\n")
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
        lines = open(path).read().splitlines()
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

    @pytest.mark.parametrize("bad", ["channels", "range", "nan"])
    def test_bad_pose_heatmaps_rejected(self, run_dir, pose_data_dir, tmp_path, bad, capsys):
        split = _copy_dir(os.path.join(pose_data_dir, "val"), tmp_path)
        path = os.path.join(split, "pose.atnp")
        hm = read_atnp(path)
        if bad == "nan":
            hm[1, 2, 3] = np.nan
        write_atnp(path, {"channels": hm[:, :, :5], "range": hm * 1.5}.get(bad, hm))
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", split])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert path in err and "or an entry is outside [0, 1]" in err

    @pytest.mark.parametrize("bad", ["shape", "values"])
    def test_bad_pose_masks_rejected(self, run_dir, pose_data_dir, tmp_path, bad, capsys):
        split = _copy_dir(os.path.join(pose_data_dir, "val"), tmp_path)
        path = os.path.join(split, "pose_mask.atnp")
        masks = read_atnp(path)
        write_atnp(path, masks[:, :15] if bad == "shape" else masks * 0.5)
        rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                   "--data", split])
        assert rc == EXIT_VALIDATION
        assert path in capsys.readouterr().err


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
            text = open(os.path.join(run_dir, "checkpoint", "manifest.txt")).read()
            open(mpath, "w").write(text.replace("head=attention", f"head={head}"))
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
        lines = open(out).read().splitlines()
        assert lines[0].startswith("kind,n,f,K,P")
        assert len(lines) > 30


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_checkpoint_bytes_do_not_depend_on_blas_thread_env(tmp_path):
    """The package pins BLAS to one thread unless the environment sets a
    count, so a run with the thread variables unset writes the bytes of
    a run at OPENBLAS_NUM_THREADS=1.  On a 1-core machine BLAS uses one
    thread either way, and this test shows nothing."""
    data = str(tmp_path / "data")
    assert main(["gen", "--out", data, "--set", "task.pose=true",
                 "--set", "task.train_samples=400", "--set", "task.val_samples=100"]) == 0
    src = os.path.dirname(os.path.dirname(attnpool.__file__))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("ATTNPOOL_SEED",)}
    base["PYTHONPATH"] = src
    checkpoints = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = str(tmp_path / f"run{len(checkpoints)}")
        subprocess.run([sys.executable, "-m", "attnpool.cli", "train", "--data", data,
                        "--out", out, "--set", "train.head=pose_reg", "--set", "train.epochs=3",
                        "--set", "train.seed=101"], env={**base, **extra}, check=True,
                       stdout=subprocess.DEVNULL)
        checkpoints.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(pathlib.Path(out, "checkpoint").iterdir())})
    assert checkpoints[0] == checkpoints[1]
