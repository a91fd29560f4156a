"""The pose_reg head, read from the training graph, and its keypoint targets.

Scores and maps come from `graph_scores` (the evaluation pass), the
17-channel MLP output from `train._batch_graph`; the pose loss is the
term `train._batch_loss` adds to the class loss, with the keypoint targets
and loss weights that `train` gathers from a per-cell table.
"""

import numpy as np
import pytest

import attnpool.train as train_mod
from attnpool.autograd import ShapeError, Tape
from attnpool.selftest import graph_scores
from attnpool.synth import PlantedTaskConfig, gen_planted, gen_pose_targets
from attnpool.train import (ATTENTION_CHANNEL, NUM_HEAD_CHANNELS, NUM_POSE_CHANNELS,
                            TrainConfig, _batch_graph, _batch_loss, eval_scores,
                            init_head_params, train)


def _pose_params(W1, W2, A, bias1=None, bias2=None):
    hdim = W1.shape[1]
    return {"W1": W1, "W2": W2, "A": A,
            "bias1": np.zeros((1, hdim)) if bias1 is None else bias1,
            "bias2": np.zeros((1, NUM_HEAD_CHANNELS)) if bias2 is None else bias2}


def _linear_params(b, A):
    """Pose head rigged so the attention channel computes exactly h = X b.

    relu(Xb) - relu(-Xb) = Xb, via W1 = [b, -b] and opposite-sign output
    weights on channel 16.
    """
    W1 = np.column_stack([b, -b])
    W2 = np.zeros((2, NUM_HEAD_CHANNELS))
    W2[0, ATTENTION_CHANNEL] = 1.0
    W2[1, ATTENTION_CHANNEL] = -1.0
    return _pose_params(W1, W2, A)


def _mlp_out(params, X):
    """The 17-channel MLP output of one feature map X (n, f): the node
    "out" that _batch_graph records for the pose loss."""
    tape = Tape()
    nodes = {name: tape.leaf(p) for name, p in params.items()}
    cfg = TrainConfig(head="pose_reg", hdim=params["W1"].shape[1])
    return _batch_graph(tape, cfg, nodes, X[None], slice(None))[1]["out"].value


def _losses(params, X, heatmaps, masks, lambda_pose):
    """_batch_loss of one batch (labels all 0) as train() passes it, with
    example i's keypoint heatmaps (n, 16) and mask (16,) at row i of
    heatmaps and masks, and no pose at lambda_pose 0."""
    B, n, _ = X.shape
    cfg = TrainConfig(head="pose_reg", lambda_pose=lambda_pose, hdim=params["W1"].shape[1])
    tape = Tape()
    nodes = {name: tape.leaf(p) for name, p in params.items()}
    weights = np.sqrt(masks / (n * masks.sum(axis=1, keepdims=True)))
    pose = ((heatmaps.reshape(B * n, NUM_POSE_CHANNELS), np.repeat(weights, n, axis=0))
            if lambda_pose > 0 else None)
    labels = np.zeros(B, dtype=np.int64)
    return float(_batch_loss(tape, cfg, nodes, X, np.arange(B), labels, pose).value)


def _pose_term(params, X, heatmaps, masks):
    """The pose loss alone: lambda 1 minus lambda 0 (which skips the term)."""
    return (_losses(params, X, heatmaps, masks, 1.0)
            - _losses(params, X, heatmaps, masks, 0.0))


def _zero_head(f=3, K=2, hdim=2):
    return _pose_params(np.zeros((f, hdim)), np.zeros((hdim, NUM_HEAD_CHANNELS)),
                        np.zeros((f, K)))


class TestForward:
    def test_rigged_head_reduces_to_linear_attention(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 4))
        b = rng.standard_normal(4)
        A = rng.standard_normal((4, 3))
        scores, maps = graph_scores("pose_reg", _linear_params(b, A), X, hdim=2)
        np.testing.assert_allclose(maps["h"][:, 0], X @ b, atol=1e-9)
        ref, _ = graph_scores("attention", {"A0": A, "b0": b[:, None]}, X)
        np.testing.assert_allclose(scores, ref, atol=1e-9)
        assert _mlp_out(_linear_params(b, A), X).shape == (6, NUM_HEAD_CHANNELS)

    def test_constant_attention_reduces_to_avg_pool(self):
        # W1 = 0, bias1 = 1, attention channel sums the hidden units / hdim:
        # h is identically 1, so scores become plain spatial sums.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 3))
        A = rng.standard_normal((3, 2))
        hdim = 4
        W2 = np.zeros((hdim, NUM_HEAD_CHANNELS))
        W2[:, ATTENTION_CHANNEL] = 1.0 / hdim
        params = _pose_params(np.zeros((3, hdim)), W2, A, bias1=np.ones((1, hdim)))
        scores, maps = graph_scores("pose_reg", params, X, hdim=hdim)
        np.testing.assert_allclose(maps["h"], np.ones((5, 1)))
        np.testing.assert_allclose(scores, X.sum(axis=0) @ A, atol=1e-12)

    def test_graph_matches_numpy_mlp(self):
        rng = np.random.default_rng(2)
        f, K, hdim = 5, 3, 7
        X = rng.standard_normal((6, f))
        params = init_head_params(TrainConfig(head="pose_reg", hdim=hdim, seed=4), f, K)
        params["bias1"] = rng.standard_normal((1, hdim))
        params["bias2"] = rng.standard_normal((1, NUM_HEAD_CHANNELS))
        hidden = np.maximum(X @ params["W1"] + params["bias1"], 0.0)
        out = hidden @ params["W2"] + params["bias2"]
        h = out[:, ATTENTION_CHANNEL]
        t = X @ params["A"]
        for k in range(K):
            scores, maps = graph_scores("pose_reg", params, X, k=k, hdim=hdim)
            np.testing.assert_allclose(_mlp_out(params, X), out, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(maps["h"][:, 0], h, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(maps["c"][:, 0], t[:, k] * h,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(scores, t.T @ h, rtol=1e-12, atol=1e-12)

    def test_forward_shape_error(self):
        params = init_head_params(TrainConfig(head="pose_reg", hdim=3), 4, 2)
        with pytest.raises(ShapeError):
            graph_scores("pose_reg", params, np.zeros((2, 5)), hdim=3)


class TestPoseLoss:
    def test_hand_example(self):
        # n=2, one visible channel, unit error at one location: 1 / (2*1)
        n = 2
        hm = np.zeros((1, n, NUM_POSE_CHANNELS))
        hm[0, 0, 0] = 1.0
        mask = np.zeros((1, NUM_POSE_CHANNELS))
        mask[0, 0] = 1.0
        X = np.ones((1, n, 3))
        assert _pose_term(_zero_head(), X, hm, mask) == pytest.approx(0.5, rel=1e-12)

    def test_masked_channels_ignored(self):
        n = 3
        hm = np.zeros((1, n, NUM_POSE_CHANNELS))
        mask = np.zeros((1, NUM_POSE_CHANNELS))
        mask[0, 2] = 1.0
        params = _zero_head()
        params["bias2"][0, 5] = 100.0  # masked channel, must not contribute
        assert _pose_term(params, np.ones((1, n, 3)), hm, mask) == 0.0

    def test_attention_channel_never_enters(self):
        n = 2
        params = _zero_head()
        params["bias2"][0, ATTENTION_CHANNEL] = 1e6
        assert _pose_term(params, np.ones((1, n, 3)), np.zeros((1, n, NUM_POSE_CHANNELS)),
                          np.ones((1, NUM_POSE_CHANNELS))) == 0.0

    def test_pred_shape_error(self):
        # keypoint targets must cover every location of the batch
        X = np.ones((1, 3, 3))
        tape = Tape()
        params = _zero_head()
        nodes = {name: tape.leaf(p) for name, p in params.items()}
        pose = (np.zeros((2, NUM_POSE_CHANNELS)), np.ones((2, NUM_POSE_CHANNELS)))
        with pytest.raises(ShapeError):
            _batch_loss(tape, TrainConfig(head="pose_reg", hdim=2), nodes, X, np.arange(1),
                        np.zeros(1, dtype=np.int64), pose)


    def test_batch_gathers_the_planted_cells_rows(self, monkeypatch):
        """train hands each shuffled batch's loss its examples' planted-cell
        rows of the keypoint table as targets, and sqrt(mask / (n * visible))
        per location as weights, 0 where no keypoint is visible (1x1 grid)."""
        seen = []

        def batch_loss(tape, config, nodes, inputs, rows, yb, pose=None):
            seen.append((rows, pose))
            return _batch_loss(tape, config, nodes, inputs, rows, yb, pose)

        monkeypatch.setattr(train_mod, "_batch_loss", batch_loss)
        for n1, n2 in ((3, 4), (1, 1)):
            task = PlantedTaskConfig(n1=n1, n2=n2, f=8, K=4, train_samples=40, val_samples=4,
                                     seed=9, pose=True)
            tr, va = gen_planted(task)
            heatmaps, masks = gen_pose_targets(task)
            seen.clear()
            train(TrainConfig(head="pose_reg", hdim=4, batch_size=16, epochs=1, seed=3), tr, va)
            assert [len(rows) for rows, _ in seen] == [16, 16, 8]
            for rows, (targets, weights) in seen:
                cells = tr.planted[rows]
                np.testing.assert_array_equal(
                    targets.reshape(len(rows), task.n, NUM_POSE_CHANNELS), heatmaps[cells])
                m = masks[cells]
                with np.errstate(invalid="ignore"):  # 0 / 0 where no keypoint is visible
                    want = np.nan_to_num(np.sqrt(m / (task.n * m.sum(axis=1, keepdims=True))))
                np.testing.assert_array_equal(weights, np.repeat(want, task.n, axis=0))


class TestValidation:
    def test_param_shape_checks(self):
        with pytest.raises(ShapeError):
            graph_scores("pose_reg", _pose_params(np.zeros((4, 3)),
                                                  np.zeros((3, NUM_HEAD_CHANNELS)),
                                                  np.zeros((4, 2)), bias1=np.zeros((1, 2))),
                         np.zeros((2, 4)), hdim=3)
        with pytest.raises(ValueError):
            TrainConfig(head="pose_reg", lambda_pose=-1.0)

    def test_init_deterministic_zero_biases(self):
        cfg = TrainConfig(head="pose_reg", hdim=5, seed=3)
        p1 = init_head_params(cfg, 6, 2)
        p2 = init_head_params(cfg, 6, 2)
        np.testing.assert_array_equal(p1["W1"], p2["W1"])
        np.testing.assert_array_equal(p1["W2"], p2["W2"])
        np.testing.assert_array_equal(p1["bias1"], np.zeros((1, 5)))
        np.testing.assert_array_equal(p1["bias2"], np.zeros((1, NUM_HEAD_CHANNELS)))
        assert p1["W1"].shape == (6, 5) and p1["W2"].shape == (5, NUM_HEAD_CHANNELS)
        assert np.abs(p1["W1"]).max() <= 1.0 / np.sqrt(6)
        assert np.abs(p1["W2"]).max() <= 1.0 / np.sqrt(5)


def test_total_loss_composition():
    # training loss = class loss + lambda_pose * pose loss; lambda 0 decouples pose
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 4, 3))
    params = init_head_params(TrainConfig(head="pose_reg", hdim=2, seed=1), 3, 2)
    hm = rng.uniform(0, 1, size=(2, 4, NUM_POSE_CHANNELS))
    mask = np.ones((2, NUM_POSE_CHANNELS))
    pose = _pose_term(params, X, hm, mask)
    assert pose > 0
    class_only = _losses(params, X, hm, mask, 0.0)
    assert _losses(params, X, hm, mask, 0.1) == pytest.approx(class_only + 0.1 * pose,
                                                              rel=1e-12)
    z = eval_scores(params, TrainConfig(head="pose_reg", hdim=2), X)
    xent = np.mean(np.log(np.exp(z).sum(axis=1)) - z[:, 0])  # labels are all 0
    assert class_only == pytest.approx(xent, rel=1e-12)
