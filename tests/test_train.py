import importlib
import os
import tracemalloc

import numpy as np
import pytest

from attnpool.autograd import ShapeError, Tape
from attnpool.pooling import score_second_order
from attnpool.synth import (Dataset, PlantedTaskConfig, gen_planted, gen_pose_targets,
                            metric_accuracy)
from attnpool.selftest import head_gradient_error
from attnpool.sketch import cbp_pool
from attnpool.train import (ATTENTION_CHANNEL, HEAD_KINDS, SGD_BLOCK_VALUES, TrainConfig,
                            TrainDivergence,
                            _batch_graph, _batch_loss, _fisher_yates, eval_forward, eval_scores,
                            evaluate, head_inputs, init_head_params, localization_rate, sgd_step,
                            sketch_for, train, true_classes, write_report, write_summary)
from splitmix_reference import SplitMix64

SMALL_TASK = PlantedTaskConfig(n1=3, n2=3, f=16, K=4, train_samples=128,
                               val_samples=64, seed=11)


@pytest.fixture(scope="module")
def small_data():
    return gen_planted(SMALL_TASK)


@pytest.fixture(scope="module")
def multi_label_data():
    return gen_planted(PlantedTaskConfig(n1=3, n2=3, f=16, K=4, train_samples=16,
                                         val_samples=4, seed=6, multi_label=True))


def _all_class_maps(head, params, X):
    """Every class's maps h, t, c (m, n, K) of a head, written with plain numpy."""
    if head == "avg_pool":
        t = X @ params["W"]
        return np.ones_like(t), t, t
    if head == "per_class":
        t, h = X @ params["A"], X @ params["B_pc"]
        return h, t, t * h
    if head == "pose_reg":
        hidden = np.maximum(X @ params["W1"] + params["bias1"], 0.0)
        h = (hidden @ params["W2"] + params["bias2"])[..., ATTENTION_CHANNEL, None]
        t = X @ params["A"]
        return np.broadcast_to(h, t.shape), t, t * h
    ranks = range(sum(name.startswith("A") for name in params))  # A0 .. A{P-1}
    hs = [X @ params[f"b{p}"] for p in ranks]
    ts = [X @ params[f"A{p}"] for p in ranks]
    return np.broadcast_to(hs[0], ts[0].shape), ts[0], sum(t * h for t, h in zip(ts, hs))


def _class_maps_numpy(head, params, X, classes, batch_size):
    """The maps h, t, c (m, n) of one class per example, written with the
    numpy products that eval_forward makes chunk by chunk."""
    m, n, f = X.shape
    maps = {key: np.empty((m, n)) for key in ("h", "t", "c")}
    for s in range(0, m, batch_size):
        Xc, cls = X[s:s + batch_size], classes[s:s + batch_size]

        def column(W):  # X_e W[:, class_e] per example
            return (Xc @ W[:, cls].T.reshape(len(cls), f, 1)).reshape(-1, n)

        if head == "avg_pool":
            t = column(params["W"])
            h, c = np.ones_like(t), t
        elif head == "per_class":
            t, h = column(params["A"]), column(params["B_pc"])
            c = t * h
        elif head == "pose_reg":
            H = Xc.reshape(-1, f) @ params["W1"]
            H += params["bias1"]
            np.maximum(H, 0.0, out=H)
            out = H @ params["W2"]
            out += params["bias2"]
            t, h = column(params["A"]), out[:, ATTENTION_CHANNEL].reshape(-1, n)
            c = t * h
        else:
            ranks = range(sum(name.startswith("A") for name in params))
            hs = [(Xc.reshape(-1, f) @ params[f"b{p}"]).reshape(-1, n) for p in ranks]
            ts = [column(params[f"A{p}"]) for p in ranks]
            h, t, c = hs[0], ts[0], ts[0] * hs[0]
            for tp, hp in zip(ts[1:], hs[1:]):
                c = c + tp * hp
        for key, value in zip(("h", "t", "c"), (h, t, c)):
            maps[key][s:s + batch_size] = value
    return maps


class TestSgdStep:
    def test_momentum_recurrence(self):
        # constant unit gradient, lr=0.1, momentum=0.9:
        # v1 = 1, v2 = 1.9 -> total displacement 0.1 * 2.9
        p = {"w": np.zeros(1)}
        state = {"w": np.zeros(1)}
        for _ in range(2):
            sgd_step(p, {"w": np.ones(1)}, state, lr=0.1, momentum=0.9,
                     weight_decay=0.0)
        assert p["w"][0] == pytest.approx(-0.29)

    def test_weight_decay_pulls_toward_zero(self):
        p = {"w": np.ones(1)}
        state = {"w": np.zeros(1)}
        sgd_step(p, {"w": np.zeros(1)}, state, lr=0.5, momentum=0.0,
                 weight_decay=0.1)
        assert p["w"][0] == pytest.approx(1.0 - 0.5 * 0.1)

    def test_zero_gradient_no_decay_is_identity(self):
        p = {"w": np.array([1.0, -2.0])}
        state = {"w": np.zeros(2)}
        sgd_step(p, {"w": np.zeros(2)}, state, lr=0.1, momentum=0.9,
                 weight_decay=0.0)
        np.testing.assert_array_equal(p["w"], [1.0, -2.0])

    def test_in_place_update_matches_formula_bitwise(self):
        self._check_formula_bitwise({"A": (5, 3), "b": (5, 1)})

    def test_blocked_update_matches_formula_bitwise(self):
        # larger than one block of SGD_BLOCK_VALUES, each with a ragged last block
        self._check_formula_bitwise({"A": (2 * (SGD_BLOCK_VALUES // 100) + 37, 100),
                                     "v": (SGD_BLOCK_VALUES + 5,)})

    @staticmethod
    def _check_formula_bitwise(shapes):
        rng = np.random.default_rng(8)
        params = {name: rng.standard_normal(s) for name, s in shapes.items()}
        state = {name: np.zeros(s) for name, s in shapes.items()}
        want_p = {name: p.copy() for name, p in params.items()}
        want_v = {name: v.copy() for name, v in state.items()}
        arrays = {name: (params[name], state[name]) for name in shapes}
        for _ in range(6):
            grads = {name: rng.standard_normal(s) for name, s in shapes.items()}
            sgd_step(params, grads, state, lr=0.03, momentum=0.9, weight_decay=1e-4)
            for name in shapes:
                want_v[name] = 0.9 * want_v[name] + grads[name] + 1e-4 * want_p[name]
                want_p[name] = want_p[name] - 0.03 * want_v[name]
                assert np.array_equal(params[name], want_p[name])
                assert np.array_equal(state[name], want_v[name])
        for name in shapes:  # updated in place
            assert params[name] is arrays[name][0] and state[name] is arrays[name][1]

    def test_non_finite_gradient_raises(self):
        p = {"w": np.zeros(1)}
        with pytest.raises(TrainDivergence):
            sgd_step(p, {"w": np.array([np.nan])}, {"w": np.zeros(1)},
                     lr=0.1, momentum=0.9, weight_decay=0.0)

    def test_non_finite_gradient_in_last_block_writes_nothing(self):
        # the whole gradient is checked before any block of the parameter is written
        rng = np.random.default_rng(9)
        shape = (2 * (SGD_BLOCK_VALUES // 100) + 37, 100)
        params, state = {"A": rng.standard_normal(shape)}, {"A": rng.standard_normal(shape)}
        grads = {"A": rng.standard_normal(shape)}
        grads["A"][-1, -1] = np.nan
        want_p, want_v = params["A"].copy(), state["A"].copy()
        with pytest.raises(TrainDivergence, match="'A'"):
            sgd_step(params, grads, state, lr=0.03, momentum=0.9, weight_decay=1e-4)
        assert np.array_equal(params["A"], want_p) and np.array_equal(state["A"], want_v)


class TestInit:
    def test_shapes_per_head(self):
        f, K = 16, 4
        assert init_head_params(TrainConfig(head="avg_pool"), f, K)["W"].shape == (f, K)
        att = init_head_params(TrainConfig(head="attention"), f, K)
        assert att["A0"].shape == (f, K) and att["b0"].shape == (f, 1)
        rp = init_head_params(TrainConfig(head="rank_p", rank=3), f, K)
        assert set(rp) == {"A0", "b0", "A1", "b1", "A2", "b2"}
        pc = init_head_params(TrainConfig(head="per_class"), f, K)
        assert pc["A"].shape == (f, K) and pc["B_pc"].shape == (f, K)
        pr = init_head_params(TrainConfig(head="pose_reg", hdim=8), f, K)
        assert pr["W1"].shape == (f, 8) and pr["W2"].shape == (8, 17)
        cb = init_head_params(TrainConfig(head="cbp", sketch_dim=12), f, K)
        assert cb["W"].shape == (12, K)

    def test_bias_knob(self):
        p = init_head_params(TrainConfig(head="attention", use_bias=True), 8, 3)
        np.testing.assert_array_equal(p["bias"], np.zeros((1, 3)))
        assert "bias" not in init_head_params(TrainConfig(head="attention"), 8, 3)

    def test_deterministic(self):
        cfg = TrainConfig(head="per_class", seed=9)
        p1 = init_head_params(cfg, 8, 3)
        p2 = init_head_params(cfg, 8, 3)
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(head="bogus")
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(rank=0)

    @pytest.mark.parametrize("head,order", [
        ("avg_pool", ["W", "bias"]),
        ("attention", ["A0", "b0", "bias"]),
        ("rank_p", ["A0", "b0", "A1", "b1", "bias"]),
        ("per_class", ["A", "B_pc", "bias"]),
        ("pose_reg", ["W1", "W2", "bias1", "bias2", "A", "bias"]),
        ("cbp", ["W", "bias"]),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7])
    def test_matches_scalar_draws(self, head, order, seed):
        # one SplitMix64 stream, one next_float per entry, row-major, tensors
        # in this order, zero biases taking no draws: checkpoints stay
        # byte-identical to the scalar-loop init
        f, K = 6, 3
        cfg = TrainConfig(head=head, rank=2, hdim=5, sketch_dim=7, seed=seed, use_bias=True)
        params = init_head_params(cfg, f, K)
        assert list(params) == order
        rng = SplitMix64(seed)
        for name, arr in params.items():
            if name.startswith("bias"):
                want = np.zeros(arr.shape)
            else:
                scale = 1.0 / np.sqrt(arr.shape[0])
                want = np.array([(2.0 * rng.next_float() - 1.0) * scale
                                 for _ in range(arr.size)]).reshape(arr.shape)
            assert arr.tobytes() == want.tobytes(), name


def test_train_module_import_binds_the_module():
    T = importlib.import_module("attnpool.train")
    import attnpool.train as T2
    assert T2 is T and T.TrainConfig is TrainConfig and callable(T.train)


class TestScores:
    def test_eval_scores_are_spatial_means(self, small_data):
        # the training logits divide the sum-form pooling scores by n
        tr, _ = small_data
        n = SMALL_TASK.n
        cfg = TrainConfig(head="attention", seed=3)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        got = eval_scores(params, cfg, tr.X[:5])
        for i in range(5):
            want = [score_second_order(tr.X[i], np.outer(params["A0"][:, k], params["b0"]))
                    for k in range(SMALL_TASK.K)]
            np.testing.assert_allclose(got[i], np.array(want) / n, rtol=1e-10, atol=1e-12)

    def test_eval_scores_per_class(self, small_data):
        tr, _ = small_data
        n = SMALL_TASK.n
        cfg = TrainConfig(head="per_class", seed=3)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        got = eval_scores(params, cfg, tr.X[:4])
        for i in range(4):
            want = [score_second_order(tr.X[i], np.outer(params["A"][:, k], params["B_pc"][:, k]))
                    for k in range(SMALL_TASK.K)]
            np.testing.assert_allclose(got[i], np.array(want) / n, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("head,kw", [
        ("avg_pool", {}), ("attention", {}), ("rank_p", {"rank": 2}),
        ("per_class", {}),
    ])
    def test_batch_graph_matches_eval_scores(self, small_data, head, kw):
        # eval_forward runs the same graph in chunks of batch_size examples
        tr, _ = small_data
        cfg = TrainConfig(head=head, seed=5, batch_size=4, **kw)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        Xb, classes = tr.X[:6], tr.labels[:6]
        tape = Tape()
        nodes = {name: tape.leaf(p) for name, p in params.items()}
        logits, maps = _batch_graph(tape, cfg, nodes, Xb, slice(None), classes)
        scores, chunked = eval_forward(params, cfg, Xb, classes=classes)
        np.testing.assert_allclose(logits.value, scores, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(maps["c"].reshape(chunked["c"].shape), chunked["c"],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(scores, eval_scores(params, cfg, Xb))

    def test_eval_bottom_up_map_is_one_shared_column(self, small_data):
        # attention's bottom-up map is X b whichever class is asked for
        tr, _ = small_data
        cfg = TrainConfig(head="attention", seed=5, batch_size=4)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        for k in range(SMALL_TASK.K):
            _, maps = eval_forward(params, cfg, tr.X[:6], classes=np.full(6, k))
            assert maps["h"].shape == (6, SMALL_TASK.n)
            np.testing.assert_allclose(maps["h"], tr.X[:6] @ params["b0"][:, 0], rtol=1e-12)

    @pytest.mark.parametrize("head,kw", [
        ("avg_pool", {}), ("attention", {}), ("attention", {"use_bias": True}),
        ("rank_p", {"rank": 3}), ("per_class", {}), ("pose_reg", {"hdim": 6}),
    ])
    @pytest.mark.parametrize("multi_label", [False, True])
    def test_class_maps_match_all_class_maps(self, small_data, multi_label_data, head, kw,
                                             multi_label):
        # 10 examples in chunks of 4: the last chunk is short
        ds = (multi_label_data if multi_label else small_data)[0]
        m, n, f, K = 10, SMALL_TASK.n, SMALL_TASK.f, SMALL_TASK.K
        X, classes = ds.X[:m], true_classes(ds)[:m]
        cfg = TrainConfig(head=head, seed=5, batch_size=4, **kw)
        params = init_head_params(cfg, f, K)
        if "bias" in params:
            params["bias"] = np.arange(1.0, K + 1.0)[None, :]
        scores, maps = eval_forward(params, cfg, X, classes=classes)
        np.testing.assert_array_equal(scores, eval_scores(params, cfg, X))
        for key, full in zip(("h", "t", "c"), _all_class_maps(head, params, X)):
            want = full[np.arange(m), :, classes]
            assert maps[key].shape == (m, n)
            np.testing.assert_allclose(maps[key], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        # the maps are of the chosen columns only: no (B*n, K) node
        tape = Tape()
        nodes = {name: tape.leaf(p) for name, p in params.items()}
        _batch_graph(tape, cfg, nodes, X, slice(0, 4), classes[:4])
        if head != "per_class":  # per_class scores through its K bottom-up maps
            assert (4 * n, K) not in {node.value.shape for node in tape.nodes}

    @pytest.mark.parametrize("head,kw", [
        ("avg_pool", {}), ("attention", {}), ("rank_p", {"rank": 3}), ("per_class", {}),
        ("pose_reg", {"hdim": 6}),
    ])
    def test_class_maps_are_constants_bitwise_of_numpy(self, small_data, head, kw):
        """Maps are values read out: with leaf parameters, each h, t and c
        that _batch_graph returns is an array, not a node; eval_forward's
        maps are bitwise the numpy products."""
        tr, _ = small_data
        m, f, K = 10, SMALL_TASK.f, SMALL_TASK.K
        X, classes = tr.X[:m], true_classes(tr)[:m]
        cfg = TrainConfig(head=head, seed=5, batch_size=4, **kw)
        params = init_head_params(cfg, f, K)
        tape = Tape()
        nodes = {name: tape.leaf(p) for name, p in params.items()}
        _, maps = _batch_graph(tape, cfg, nodes, X, slice(0, 4), classes[:4])
        assert all(isinstance(maps[key], np.ndarray) for key in ("h", "t", "c"))
        _, maps = eval_forward(params, cfg, X, classes=classes)
        for key, want in _class_maps_numpy(head, params, X, classes, cfg.batch_size).items():
            assert maps[key].tobytes() == want.tobytes(), key

    def test_class_maps_of_no_examples_and_of_cbp(self, small_data):
        tr, _ = small_data
        cfg = TrainConfig(head="attention", seed=5, batch_size=4)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        scores, maps = eval_forward(params, cfg, tr.X[:0], classes=np.zeros(0, dtype=np.int64))
        assert scores.shape == (0, SMALL_TASK.K)
        assert all(maps[key].shape == (0, SMALL_TASK.n) for key in ("h", "t", "c"))
        assert eval_forward(params, cfg, tr.X[:6])[1] is None
        with pytest.raises(ShapeError):  # one class per example
            eval_forward(params, cfg, tr.X[:6], classes=[0, 1])
        cbp = TrainConfig(head="cbp", sketch_dim=8)
        assert eval_forward(init_head_params(cbp, SMALL_TASK.f, SMALL_TASK.K), cbp, tr.X[:6],
                            classes=tr.labels[:6])[1] is None

    @pytest.mark.parametrize("head,kw", [("attention", {}), ("rank_p", {"rank": 3})])
    def test_class_maps_read_each_example_once(self, small_data, monkeypatch, head, kw):
        # Tape.attend gives scores and class maps from one read of the split:
        # one attend pass, and no node holds the batch's feature maps
        tapes = []

        class RecordedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(importlib.import_module("attnpool.train"), "Tape", RecordedTape)
        tr, _ = small_data
        cfg = TrainConfig(head=head, seed=5, batch_size=6, **kw)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        _, maps = eval_forward(params, cfg, tr.X[:6], classes=tr.labels[:6])
        [tape] = tapes  # one chunk
        ops = [node.op for node in tape.nodes]
        assert ops.count("attend_pool") == cfg.rank
        # the parameters, then per component its pooled features and scores:
        # no node holds data or maps
        assert ops[:len(params)] == ["leaf"] * len(params)
        assert all(node.value.shape != (6 * SMALL_TASK.n, 1) for node in tape.nodes)
        assert maps["c"].shape == (6, SMALL_TASK.n)

    def test_true_classes(self, small_data, multi_label_data):
        tr, _ = small_data
        np.testing.assert_array_equal(true_classes(tr), tr.labels)
        ml = multi_label_data[0]
        assert ml.labels.ndim == 2
        np.testing.assert_array_equal(true_classes(ml),
                                      [int(np.flatnonzero(row)[0]) for row in ml.labels])


class TestTrainingTape:
    """A training step pools first; its nodes are the parameters and what
    is computed from them, and every node gets a gradient."""

    B, n, f, K = 3, 4, 5, 3  # K differs from every other width

    def _step(self, head, **kw):
        """One training step's tape after backward, and its data and targets."""
        B, n, f, K = self.B, self.n, self.f, self.K
        cfg = TrainConfig(head=head, **{"rank": 2, "hdim": 6, "sketch_dim": 7, "seed": 1, **kw})
        rng = np.random.default_rng(0)
        Xb = rng.standard_normal((B, n, f))
        if head == "cbp":  # its inputs are sketch features
            Xb = rng.standard_normal((B, cfg.sketch_dim))
        pose = None
        if head == "pose_reg":
            pose = (rng.uniform(size=(B * n, 16)), np.full((B * n, 16), 0.1))
        tape = Tape()
        nodes = {name: tape.leaf(p) for name, p in init_head_params(cfg, f, K).items()}
        loss = _batch_loss(tape, cfg, nodes, Xb, np.arange(B), np.arange(B) % K, pose)
        tape.backward(loss)
        return tape, loss, [Xb, *(pose or ())]

    @pytest.mark.parametrize("head", list(HEAD_KINDS))
    def test_no_class_maps_and_no_data_gradients(self, head):
        B, n, K = self.B, self.n, self.K
        tape, _, data = self._step(head)
        if head not in ("per_class", "cbp"):  # per_class has K bottom-up maps
            assert (B * n, K) not in {node.value.shape for node in tape.nodes}
        if head in ("attention", "rank_p"):  # Tape.attend reads X in place
            assert "attend_pool" in {node.op for node in tape.nodes}
        for node in tape.nodes:  # no node holds, or views, the split's data or targets
            assert not any(np.shares_memory(node.value, d) for d in data)
            assert node.grad is not None and node.grad.shape == node.value.shape
        assert {node.op for node in tape.nodes if not node.parents} == {"leaf"}

    @pytest.mark.parametrize("head,kw", [(head, {"rank": 3}) for head in HEAD_KINDS]
                             + [("per_class", {"use_bias": True})])
    def test_nodes_have_the_fields_the_benchmark_tracer_reads(self, head, kw):
        """perfbench's tracer reads, after backward, each node's op, parents,
        value and grad, and unpacks two 2-D parents from every matmul."""
        tape, loss, _ = self._step(head, **kw)
        for node in tape.nodes[:loss.id + 1]:
            assert isinstance(node.op, str) and isinstance(node.parents, tuple)
            assert isinstance(node.value, np.ndarray) and node.grad is not None
            if node.op == "matmul":
                assert len(node.parents) == 2
                assert all(tape.nodes[i].value.ndim == 2 for i in node.parents)

    @pytest.mark.parametrize("head", ["avg_pool", "attention", "rank_p", "pose_reg"])
    @pytest.mark.parametrize("config", [{"multi_label": True}, {"use_bias": True},
                                        {"multi_label": True, "use_bias": True}])
    def test_pool_first_gradients(self, head, config):
        worst = max(head_gradient_error(head, seed, **config) for seed in range(3))
        assert worst <= 1e-6


class TestLocalization:
    def test_rigged_example(self):
        # X = I picks out cell 0 for class 0 under A = I, b = e0
        cfg_task = PlantedTaskConfig(n1=1, n2=2, f=2, K=2, train_samples=1,
                                     val_samples=1, seed=0)
        ds = Dataset(config=cfg_task, X=np.eye(2)[None, :, :],
                     labels=np.array([0]), planted=np.array([0]))
        params = {"A0": np.eye(2), "b0": np.array([[1.0], [0.0]])}
        cfg = TrainConfig(head="attention")
        _, maps = eval_forward(params, cfg, ds.X, classes=[0])
        assert localization_rate(maps, ds) == 1.0
        ds_miss = Dataset(config=cfg_task, X=np.eye(2)[None, :, :],
                          labels=np.array([0]), planted=np.array([1]))
        assert localization_rate(maps, ds_miss) == 0.0

    def test_cbp_has_no_maps(self, small_data):
        tr, _ = small_data
        cfg = TrainConfig(head="cbp", sketch_dim=8)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        out = evaluate(params, cfg, tr)
        assert out["maps"] is None and np.isnan(out["localization"])
        assert np.isnan(localization_rate(None, tr))


class TestTrainLoop:
    def test_bitwise_reproducible(self, small_data):
        tr, va = small_data
        cfg = TrainConfig(head="attention", epochs=3, batch_size=32, seed=5)
        r1 = train(cfg, tr, va)
        r2 = train(cfg, tr, va)
        assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
        for name in r1.params:
            assert r1.params[name].tobytes() == r2.params[name].tobytes()

    def test_attention_reads_the_split_without_copying_a_batch(self):
        # at n*f = 49*2048 each Tape.attend block is one example, a view of the split
        B, n, f = 8, 49, 2048
        tr, va = gen_planted(PlantedTaskConfig(n1=7, n2=7, f=f, K=16, train_samples=16,
                                               val_samples=8, seed=3))
        cfg = TrainConfig(head="attention", epochs=1, batch_size=B, seed=3)
        tracemalloc.start()
        try:
            train(cfg, tr, va)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < B * n * f * 8 / 2

    def test_zero_epochs(self, small_data):
        tr, va = small_data
        cfg = TrainConfig(head="avg_pool", epochs=0)
        report = train(cfg, tr, va)
        assert report.epochs == [] and not report.diverged
        init = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        np.testing.assert_array_equal(report.params["W"], init["W"])
        assert np.isnan(report.final_val_metric)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_partial_report(self, small_data):
        tr, va = small_data
        cfg = TrainConfig(head="attention", epochs=10, lr=1e8, seed=0)
        report = train(cfg, tr, va)
        assert report.diverged
        assert len(report.epochs) < 10  # aborted early with a partial report
        assert report.diverged_at.startswith(f"epoch {len(report.epochs)} batch ")

    def test_smoothed_loss_trend_is_nonincreasing(self, small_data):
        tr, va = small_data
        cfg = TrainConfig(head="attention", epochs=30, seed=1)
        report = train(cfg, tr, va)
        losses = np.array([e.train_loss for e in report.epochs])
        smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
        upticks = np.diff(smoothed)
        # small positive noise from reshuffled minibatches is tolerated
        assert upticks.max() <= 0.01
        assert losses[-1] < losses[0]

    def test_learns_above_chance(self, small_data):
        tr, va = small_data
        cfg = TrainConfig(head="attention", epochs=30, seed=1)
        report = train(cfg, tr, va)
        assert report.final_val_metric > 1.0 / SMALL_TASK.K + 0.1

    @pytest.mark.parametrize("head", ["avg_pool", "attention"])
    def test_untrained_head_is_chance_level(self, small_data, head):
        _, va = small_data
        cfg = TrainConfig(head=head, seed=0)
        params = init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)
        acc = evaluate(params, cfg, va)["accuracy"]
        chance = 1.0 / SMALL_TASK.K
        three_sigma = 3.0 * np.sqrt(chance * (1 - chance) / len(va))
        assert abs(acc - chance) <= three_sigma

    def test_pose_reg_needs_targets(self, small_data):
        tr, va = small_data
        with pytest.raises(ValueError):
            train(TrainConfig(head="pose_reg", epochs=1), tr, va)

    def test_pose_reg_trains_with_targets(self, small_data):
        tr, va = small_data
        tr = gen_pose_targets(tr)
        va = gen_pose_targets(va)
        cfg = TrainConfig(head="pose_reg", epochs=2, hdim=8, seed=2)
        report = train(cfg, tr, va)
        assert len(report.epochs) == 2 and not report.diverged

    def test_multilabel_training(self):
        cfg_task = PlantedTaskConfig(n1=3, n2=3, f=16, K=4, train_samples=64,
                                     val_samples=32, seed=6, multi_label=True)
        tr, va = gen_planted(cfg_task)
        report = train(TrainConfig(head="attention", epochs=2), tr, va)
        assert len(report.epochs) == 2
        assert 0.0 <= report.final_val_metric <= 1.0  # mAP

    def test_labels_choose_the_loss(self, multi_label_data):
        # one batch of every example: epoch 0's loss is the sigmoid
        # cross-entropy of the initial scores, averaged over all m*K entries
        tr, va = multi_label_data
        cfg = TrainConfig(head="attention", epochs=1, batch_size=len(tr), seed=3)
        z = eval_scores(init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K), cfg, tr.X)
        want = np.mean(np.logaddexp(0.0, z) - tr.labels * z)
        assert train(cfg, tr, va).epochs[0].train_loss == pytest.approx(want, rel=1e-12)

    def test_empty_dataset_rejected(self):
        empty = Dataset(config=SMALL_TASK,
                        X=np.zeros((0, SMALL_TASK.n, SMALL_TASK.f)),
                        labels=np.zeros(0, dtype=np.int64),
                        planted=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            train(TrainConfig(epochs=1), empty, empty)

    def test_cbp_trains(self, small_data):
        tr, va = small_data
        report = train(TrainConfig(head="cbp", sketch_dim=16, epochs=2, seed=3),
                       tr, va)
        assert len(report.epochs) == 2 and not report.diverged

    def test_cbp_first_loss_scores_mean_pooled_features(self, small_data):
        # one batch of every example: epoch 0's loss is that of the initial W
        tr, va = small_data
        cfg = TrainConfig(head="cbp", sketch_dim=16, epochs=1, batch_size=len(tr), seed=3)
        z = cbp_pool(tr.X, sketch_for(cfg, SMALL_TASK.f)) / SMALL_TASK.n
        z = z @ init_head_params(cfg, SMALL_TASK.f, SMALL_TASK.K)["W"]
        lse = np.log(np.exp(z).sum(axis=1))
        want = np.mean(lse - z[np.arange(len(tr)), tr.labels])
        assert train(cfg, tr, va).epochs[0].train_loss == pytest.approx(want, rel=1e-12)


def _glibc_with_default_malloc_env() -> bool:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    return (bool(libc) and libc.startswith("glibc")
            and not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(os.environ)
            and "glibc.malloc" not in os.environ.get("GLIBC_TUNABLES", ""))


@pytest.mark.skipif(not _glibc_with_default_malloc_env(),
                    reason="malloc thresholds are pinned on glibc without malloc settings only")
def test_repeated_train_reuses_heap_pages():
    """With the thresholds the package sets at import, a second identical
    run faults in no fresh pages: its batch arrays come back from the heap
    instead of being unmapped or trimmed and faulted in again."""
    import resource  # Unix only
    train_ds, val_ds = gen_planted(PlantedTaskConfig(f=256, K=16, train_samples=64,
                                                     val_samples=32))
    config = TrainConfig(head="attention", epochs=2)
    train(config, train_ds, val_ds)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(config, train_ds, val_ds)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def scalar_fisher_yates(m: int, seed: int) -> np.ndarray:
    """Reference shuffle: one scalar SplitMix64 draw per swap, i = m-1 down to 1."""
    rng = SplitMix64(seed)
    idx = np.arange(m)
    for i in range(m - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


class TestShuffle:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 64, 2000])
    def test_matches_scalar_reference(self, m):
        for seed in (0, 101, 2**63 + 5, 2**64 - 1):
            got, want = _fisher_yates(m, seed), scalar_fisher_yates(m, seed)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_fisher_yates_is_permutation(self):
        idx = _fisher_yates(100, seed=4)
        assert sorted(idx) == list(range(100))

    def test_deterministic_and_seed_sensitive(self):
        np.testing.assert_array_equal(_fisher_yates(50, 1), _fisher_yates(50, 1))
        assert not np.array_equal(_fisher_yates(50, 1), _fisher_yates(50, 2))


class TestEvaluateAndReports:
    def test_evaluate_keys(self, small_data):
        tr, va = small_data
        cfg = TrainConfig(head="attention", epochs=2, seed=7)
        report = train(cfg, tr, va)
        out = evaluate(report.params, cfg, va)
        assert set(out) == {"scores", "accuracy", "localization", "maps"}
        scores, maps = eval_forward(report.params, cfg, va.X, classes=va.labels)
        np.testing.assert_array_equal(out["scores"], scores)
        np.testing.assert_array_equal(out["maps"], maps["c"])
        assert out["maps"].shape == (len(va), SMALL_TASK.n)
        # the last epoch's validation is this same pass
        assert out["accuracy"] == metric_accuracy(scores, va.labels)
        assert out["accuracy"] == report.final_val_metric
        assert out["localization"] == localization_rate(maps, va)
        assert out["localization"] == report.final_localization

    def test_pose_reg_evaluate_keeps_only_map_values(self):
        """Over 16 chunks, evaluate holds no more memory above one chunk's
        peak than what grows with m: its (m, n) maps, its (m, K) scores (the
        chunks' and their concatenation) and (m,) metric arrays.  No chunk's
        MLP output outlives the chunk."""
        m, n, K, B = 512, 49, 8, 32
        _, va = gen_planted(PlantedTaskConfig(K=K, train_samples=1, val_samples=m, seed=3))
        first = Dataset(config=va.config, X=va.X[:B], labels=va.labels[:B],
                        planted=va.planted[:B])
        cfg = TrainConfig(head="pose_reg", batch_size=B, seed=3)
        params = init_head_params(cfg, va.config.f, K)

        def peak(ds):
            tracemalloc.start()
            try:
                evaluate(params, cfg, ds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        evaluate(params, cfg, first)  # one-time allocations stay out of the peaks
        grows_with_m = (3 * n + 2 * K + 4) * m * 8
        assert peak(va) - peak(first) <= grows_with_m

    def test_cbp_scores_equal_per_example_features_bitwise(self, small_data):
        # evaluate() sketches the split as one stack (in chunks of 56 maps at d=64)
        tr, va = small_data
        cfg = TrainConfig(head="cbp", sketch_dim=64, use_bias=True, epochs=2, seed=4)
        params = train(cfg, tr, va).params
        sk = sketch_for(cfg, SMALL_TASK.f)
        features = np.stack([cbp_pool(x, sk) for x in va.X]) / SMALL_TASK.n
        np.testing.assert_array_equal(head_inputs(cfg, va.X), features)
        want = evaluate(params, cfg, va, features)["scores"]
        got = evaluate(params, cfg, va)["scores"]
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_cbp_scores_are_mean_pooled_features(self, small_data):
        tr, va = small_data
        cfg = TrainConfig(head="cbp", sketch_dim=16, use_bias=True, epochs=1, seed=5)
        params = train(cfg, tr, va).params
        features = cbp_pool(va.X, sketch_for(cfg, SMALL_TASK.f))
        np.testing.assert_allclose(eval_scores(params, cfg, va.X),
                                   features / SMALL_TASK.n @ params["W"] + params["bias"],
                                   rtol=1e-12)

    def test_write_report_round_trip(self, small_data, tmp_path):
        tr, va = small_data
        report = train(TrainConfig(head="avg_pool", epochs=2, seed=1), tr, va)
        path = tmp_path / "report.tsv"
        write_report(path, report)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert len(rows) == 2
        for rec, row in zip(report.epochs, rows):
            assert int(row[0]) == rec.epoch
            assert float(row[1]) == rec.train_loss
            assert float(row[2]) == rec.val_metric
            assert float(row[3]) == rec.localization

    def test_write_summary(self, small_data, tmp_path):
        tr, va = small_data
        report = train(TrainConfig(head="avg_pool", epochs=1, seed=1), tr, va)
        path = tmp_path / "summary.txt"
        write_summary(path, report)
        kv = dict(line.split("=", 1) for line in path.read_text().splitlines())
        assert list(kv) == ["head", "epochs", "final_train_loss", "final_val_metric",
                            "final_localization", "wall_clock_s", "diverged"]
        assert kv["head"] == "avg_pool"
        assert kv["epochs"] == "1"
        assert kv["diverged"] == "false"
        assert float(kv["final_val_metric"]) == report.final_val_metric
