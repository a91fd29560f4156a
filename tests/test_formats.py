"""ATNP binary matrices, PGM heatmaps, and checkpoint directories."""

import dataclasses
import gc
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from attnpool import selftest
from attnpool.atnp import AtnpError, read_atnp, write_atnp
from attnpool.autograd import ShapeError
from attnpool.checkpoint import (CheckpointError, load_checkpoint,
                                 save_checkpoint)
from attnpool.images import export_pgm, montage, normalize_map, read_pgm
from attnpool.train import TrainConfig, init_head_params


class TestAtnp:
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
    def test_round_trip(self, tmp_path, shape):
        arr = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        path = tmp_path / "a.atnp"
        write_atnp(path, arr)
        np.testing.assert_array_equal(read_atnp(path), arr)

    def test_round_trip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((4, 5))
        p1, p2 = tmp_path / "a.atnp", tmp_path / "b.atnp"
        write_atnp(p1, arr)
        write_atnp(p2, read_atnp(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_holds_one_copy(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((200, 49, 32))
        path = tmp_path / "big.atnp"
        write_atnp(path, arr)
        tracemalloc.start()
        try:
            out = read_atnp(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, arr)
        assert peak < 1.25 * arr.nbytes

    def test_zero_d_written_as_length_one(self, tmp_path):
        path = tmp_path / "s.atnp"
        write_atnp(path, np.float64(7.0))
        out = read_atnp(path)
        assert out.shape == (1,) and out[0] == 7.0

    def test_zero_size_array_rejected_before_open(self, tmp_path):
        path = tmp_path / "empty.atnp"
        with pytest.raises(AtnpError, match="dim of 0"):
            write_atnp(path, np.zeros((3, 0)))
        assert not path.exists()

    def test_exact_layout(self, tmp_path):
        path = tmp_path / "a.atnp"
        write_atnp(path, np.array([[1.0, 2.0]]))
        blob = path.read_bytes()
        assert blob[:4] == b"ATNP"
        assert struct.unpack_from("<IIII", blob, 4) == (1, 2, 1, 2)
        assert struct.unpack_from("<2d", blob, 20) == (1.0, 2.0)
        assert len(blob) == 20 + 16

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.atnp"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(AtnpError):
            read_atnp(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.atnp"
        path.write_bytes(b"ATNP" + struct.pack("<III", 99, 1, 1) + bytes(8))
        with pytest.raises(AtnpError):
            read_atnp(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "good.atnp"
        write_atnp(path, np.ones((2, 2)))
        (tmp_path / "cut.atnp").write_bytes(path.read_bytes()[:-8])
        with pytest.raises(AtnpError):
            read_atnp(tmp_path / "cut.atnp")

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "bad.atnp"
        path.write_bytes(b"ATNP" + struct.pack("<IIII", 1, 2, 0, 3))
        with pytest.raises(AtnpError):
            read_atnp(path)


class TestPgm:
    def test_normalize_linear(self):
        grid = normalize_map(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(grid, [[0, 85], [170, 255]])

    def test_constant_map_mid_gray(self):
        grid = normalize_map(np.full((2, 3), 7.0))
        np.testing.assert_array_equal(grid, np.full((2, 3), 128, dtype=np.uint8))

    def test_normalize_requires_2d(self):
        with pytest.raises(ShapeError):
            normalize_map(np.zeros(4))

    def test_export_exact_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        export_pgm(normalize_map(np.array([[1.0, 2.0], [3.0, 4.0]])), path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])

    def test_read_round_trip(self, tmp_path):
        path = tmp_path / "m.pgm"
        grid = np.arange(12, dtype=np.uint8).reshape(3, 4)
        export_pgm(grid, path)
        np.testing.assert_array_equal(read_pgm(path), grid)

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError):
            read_pgm(path)
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))  # short payload
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_montage_layout(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[5.0, 5.0]])
        # each panel normalized independently: [0, 255] then [128, 128]
        np.testing.assert_array_equal(montage([a, b]), [[0, 255, 128, 128]])

    def test_montage_height_mismatch(self):
        with pytest.raises(ShapeError):
            montage([np.zeros((2, 2)), np.zeros((3, 2))])


class TestCheckpoint:
    CONFIG = TrainConfig(head="attention", seed=4)

    def _params(self):
        return init_head_params(self.CONFIG, 32, 8)

    def _save(self, tmp_path, params=None, config=CONFIG):
        save_checkpoint(tmp_path / "ckpt", self._params() if params is None else params,
                        config)
        return tmp_path / "ckpt"

    def _edit_manifest(self, ckpt, old, new):
        mpath = ckpt / "manifest.txt"
        text = mpath.read_text()
        assert old in text
        mpath.write_text(text.replace(old, new))

    def test_round_trip_bit_identical(self, tmp_path):
        params = self._params()
        loaded, config = load_checkpoint(self._save(tmp_path, params), 32, 8)
        assert config == self.CONFIG
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()

    def test_manifest_records_every_field(self, tmp_path):
        config = TrainConfig(head="rank_p", rank=2, lr=0.5, momentum=0.25,
                             weight_decay=0.0, batch_size=7, epochs=3, seed=2**63 + 7,
                             lambda_pose=0.0, hdim=3, sketch_dim=5, use_bias=True)
        ckpt = self._save(tmp_path, init_head_params(config, 6, 4), config)
        lines = (ckpt / "manifest.txt").read_text().splitlines()
        assert lines[0] == "format_version=1"
        assert lines[1:13] == [f"{fld.name}={getattr(config, fld.name)}"
                               for fld in dataclasses.fields(TrainConfig)]
        assert lines[13:] == ["tensor.A0.dims=6x4", "tensor.A1.dims=6x4",
                              "tensor.b0.dims=6x1", "tensor.b1.dims=6x1",
                              "tensor.bias.dims=1x4"]
        assert load_checkpoint(ckpt, 6, 4)[1] == config

    def test_pose_reg_use_bias_checkpoint_without_bias_is_rejected(self, tmp_path):
        # pose_reg once ignored use_bias, and saved no "bias" tensor under it
        config = TrainConfig(head="pose_reg", hdim=4, use_bias=True)
        params = init_head_params(config, 32, 8)
        assert "bias" in params
        del params["bias"]
        ckpt = self._save(tmp_path, params, config)
        with pytest.raises(CheckpointError, match=re.escape(str(ckpt))):
            load_checkpoint(ckpt, 32, 8)

    @pytest.mark.parametrize("config", [
        TrainConfig(head="attention", seed=4),
        TrainConfig(head="rank_p", seed=9, rank=3, use_bias=True),
        TrainConfig(head="pose_reg", seed=1, hdim=16, lambda_pose=0.5),
        TrainConfig(head="cbp", sketch_dim=32, use_bias=True),
    ])
    def test_earlier_manifest_format_loads(self, tmp_path, config):
        # checkpoints written before the manifest held every TrainConfig
        # field: training-only fields were left out and take their defaults;
        # the loss was a setting then, and its line is ignored
        params = init_head_params(config, 32, 8)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        fields = [f"{key}={getattr(config, key)}" for key in
                  ("head", "seed", "rank", "hdim", "sketch_dim", "use_bias", "lambda_pose")]
        lines = ["format_version=1"] + fields[:3] + ["loss=sigmoid"] + fields[3:]
        for name in sorted(params):
            lines.append(f"tensor.{name}.dims={'x'.join(map(str, params[name].shape))}")
            write_atnp(str(ckpt / f"{name}.atnp"), params[name])
        (ckpt / "manifest.txt").write_text("\n".join(lines) + "\n")
        loaded, got = load_checkpoint(ckpt, 32, 8)
        assert got == config
        assert all(loaded[name].tobytes() == params[name].tobytes() for name in params)

    def test_default_attention_has_two_blobs(self, tmp_path):
        ckpt = self._save(tmp_path)
        blobs = sorted(p.name for p in ckpt.glob("*.atnp"))
        assert blobs == ["A0.atnp", "b0.atnp"]
        loaded, _ = load_checkpoint(ckpt, 32, 8)
        assert loaded["A0"].shape == (32, 8) and loaded["b0"].shape == (32, 1)

    def test_version_mismatch(self, tmp_path):
        ckpt = self._save(tmp_path)
        self._edit_manifest(ckpt, "format_version=1", "format_version=2")
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt, 32, 8)

    @pytest.mark.parametrize("old, new", [
        ("hdim=128", "hdim=128\nbogus=1"),         # unknown key
        ("rank=1", "rank=one"),                    # unparsable value
        ("use_bias=False", "use_bias=maybe"),
        ("head=attention", "head=rank_9"),         # not a head
        ("tensor.A0.dims=32x8", "tensor.A0.dims=32xeight"),
        ("format_version=1", "format_version=1\nno equals sign"),
        ("hdim=128", "hdim=0"),                    # a TrainConfig check
        ("sketch_dim=64", "sketch_dim=-1"),
    ])
    def test_bad_manifest_entry(self, tmp_path, old, new):
        ckpt = self._save(tmp_path)
        self._edit_manifest(ckpt, old, new)
        with pytest.raises(CheckpointError, match="manifest.txt"):
            load_checkpoint(ckpt, 32, 8)

    def test_tensors_must_be_the_heads(self, tmp_path):
        ckpt = self._save(tmp_path)
        for f, K in ((31, 8), (32, 9)):  # the scored split's f or K differs
            want = f"checkpoint {ckpt}: head 'attention' at f={f}, K={K} has tensors"
            with pytest.raises(CheckpointError, match=re.escape(want)):
                load_checkpoint(ckpt, f, K)
        self._edit_manifest(ckpt, "head=attention", "head=avg_pool")
        with pytest.raises(CheckpointError,
                           match=re.escape("'avg_pool' at f=32, K=8 has tensors {'W': (32, 8)}, "
                                           "manifest lists {'A0': (32, 8), 'b0': (32, 1)}")):
            load_checkpoint(ckpt, 32, 8)

    def test_dim_tamper_detected(self, tmp_path):
        ckpt = self._save(tmp_path)
        self._edit_manifest(ckpt, "tensor.A0.dims=32x8", "tensor.A0.dims=32x9")
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt, 32, 8)
        # a blob whose shape differs from its manifest entry
        ckpt = self._save(tmp_path)
        write_atnp(str(ckpt / "b0.atnp"), np.zeros((1, 32)))
        with pytest.raises(CheckpointError, match=re.escape(str(ckpt / "b0.atnp"))):
            load_checkpoint(ckpt, 32, 8)

    def test_missing_blob(self, tmp_path):
        ckpt = self._save(tmp_path)
        (ckpt / "b0.atnp").unlink()
        with pytest.raises(CheckpointError, match=re.escape(str(ckpt / "b0.atnp"))):
            load_checkpoint(ckpt, 32, 8)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_blob_rejected(self, tmp_path, value):
        params = self._params()
        params["A0"][3, 1] = value
        ckpt = self._save(tmp_path, params)
        with pytest.raises(CheckpointError, match=re.escape(str(ckpt / "A0.atnp"))):
            load_checkpoint(ckpt, 32, 8)

    def test_manifest_not_utf8_names_file_and_line(self, tmp_path):
        ckpt = self._save(tmp_path)
        mpath = ckpt / "manifest.txt"
        mpath.write_bytes(mpath.read_bytes().replace(b"head=attention", b"head=attenti\xf3n"))
        with pytest.raises(ValueError, match=re.escape(f"{mpath}: line 2 ")):
            load_checkpoint(ckpt, 32, 8)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nothing", 32, 8)


def test_selftest_round_trips_close_their_files():
    """selftest's determinism check reads back the reports, checkpoints,
    ATNP and PGM files it wrote and leaves none for the garbage collector
    to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ok, detail = selftest.check_determinism()
        gc.collect()
    assert ok, detail
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
