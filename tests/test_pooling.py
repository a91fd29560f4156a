"""Pooling scores and maps of the heads, read from the training graph.

Every head's scores and maps are defined once, in `train._batch_graph`;
these tests check its forward pass against the explicit second-order
oracle (`pooling.score_second_order`) and against hand-computed values.
`graph_scores` returns sum-form scores (the graph's logits are these / n).
"""

import time

import numpy as np
import pytest

from attnpool.autograd import ShapeError
from attnpool.pooling import score_second_order
from attnpool.selftest import graph_scores
from attnpool.train import TrainConfig, eval_forward, init_head_params


def random_instances(count, seed=123, max_dim=16):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_dim + 1))
        f = int(rng.integers(1, max_dim + 1))
        yield rng.standard_normal((n, f)), rng.standard_normal(f), rng.standard_normal(f)


def rank1(A, b):
    return {"A0": np.asarray(A, dtype=np.float64).reshape(len(b), -1),
            "b0": np.asarray(b, dtype=np.float64).reshape(-1, 1)}


class TestRank1Equivalence:
    def test_hand_example(self):
        X = np.eye(2)
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        # X^T X = I so the score is just a . b = 11
        s, _ = graph_scores("attention", rank1(a, b), X)
        assert s[0] == pytest.approx(11.0, rel=1e-15)
        assert score_second_order(X, np.outer(a, b)) == pytest.approx(11.0)

    def test_equivalence_over_1000_instances(self):
        t0 = time.perf_counter()
        for X, a, b in random_instances(1000):
            cheap = graph_scores("attention", rank1(a, b), X)[0][0]
            oracle = score_second_order(X, np.outer(a, b))
            assert abs(cheap - oracle) <= 1e-9 * (1.0 + abs(cheap))
        assert time.perf_counter() - t0 < 5.0

    def test_symmetric_form_identity(self):
        for X, a, b in random_instances(1000, seed=7):
            s = graph_scores("attention", rank1(a, b), X)[0][0]
            both = float((X @ a) @ (X @ b))
            scale = 1.0 + abs(both)
            assert abs(s - both) / scale <= 1e-12
            assert abs(s - graph_scores("attention", rank1(b, a), X)[0][0]) / scale <= 1e-12

    def test_combined_map_identity(self):
        for X, a, b in random_instances(300, seed=9):
            direct, maps = graph_scores("attention", rank1(a, b), X)
            via_map = maps["c"].sum(axis=0)
            np.testing.assert_allclose(via_map, direct, rtol=1e-12, atol=1e-12)

    def test_rank1_parts(self):
        X = np.array([[1.0, 0.0], [2.0, 1.0]])
        b = np.array([1.0, 1.0])
        a = np.array([1.0, 0.0])
        s, maps = graph_scores("attention", rank1(a, b), X)
        # bottom-up h = X b, top-down t = X a, score h . t = 1*1 + 3*2
        np.testing.assert_array_equal(maps["h"][:, 0], [1.0, 3.0])
        np.testing.assert_array_equal(maps["t"][:, 0], [1.0, 2.0])
        assert s[0] == 7.0


class TestRankP:
    @pytest.mark.parametrize("P", [1, 2, 5])
    def test_rank_p_equals_explicit_second_order(self, P):
        rng = np.random.default_rng(40 + P)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            f = int(rng.integers(1, 10))
            K = int(rng.integers(1, 5))
            X = rng.standard_normal((n, f))
            A_p = [rng.standard_normal((f, K)) for _ in range(P)]
            b_p = [rng.standard_normal(f) for _ in range(P)]
            params = {}
            for p in range(P):
                params[f"A{p}"], params[f"b{p}"] = A_p[p], b_p[p][:, None]
            s, _ = graph_scores("rank_p", params, X, rank=P)
            for k in range(K):
                W = sum(np.outer(A[:, k], b) for A, b in zip(A_p, b_p))
                oracle = score_second_order(X, W)
                assert abs(s[k] - oracle) <= 1e-9 * (1.0 + abs(oracle))

    def test_rank1_special_case_matches_multiclass(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 4))
        params = rank1(rng.standard_normal((4, 3)), rng.standard_normal(4))
        s_rank_p, maps_p = graph_scores("rank_p", params, X, rank=1)
        s_att, maps_att = graph_scores("attention", params, X)
        np.testing.assert_array_equal(s_rank_p, s_att)
        np.testing.assert_array_equal(maps_p["c"], maps_att["c"])


class TestOtherHeads:
    def test_avg_pool_hand(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        s, maps = graph_scores("avg_pool", {"W": np.ones((2, 1))}, X)
        assert s[0] == 10.0
        np.testing.assert_array_equal(maps["h"], np.ones((2, 1)))

    def test_top_down_only_matches_avg_pool_columns(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 5))
        W = rng.standard_normal((5, 3))
        s, maps = graph_scores("avg_pool", {"W": W}, X)
        np.testing.assert_allclose(s, X.sum(axis=0) @ W, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(maps["c"], maps["t"])

    def test_per_class_hand(self):
        X = np.eye(2)
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        B = np.array([[3.0, 0.0], [0.0, 4.0]])
        # X^T X = I: s[k] = A[:,k] . B[:,k]
        s, _ = graph_scores("per_class", {"A": A, "B_pc": B}, X)
        np.testing.assert_allclose(s, [3.0, 8.0])

    def test_per_class_matches_second_order_per_class(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 6))
        A = rng.standard_normal((6, 3))
        B = rng.standard_normal((6, 3))
        s, _ = graph_scores("per_class", {"A": A, "B_pc": B}, X)
        for k in range(3):
            oracle = score_second_order(X, np.outer(A[:, k], B[:, k]))
            assert s[k] == pytest.approx(oracle, rel=1e-10, abs=1e-10)


class TestMapsAndShapes:
    def test_attention_maps_structure(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 4))
        A, b = rng.standard_normal((4, 3)), rng.standard_normal(4)
        for k in range(3):
            s, maps = graph_scores("attention", rank1(A, b), X, k=k)
            h, t, c = (maps[key] for key in ("h", "t", "c"))
            assert h.shape == t.shape == c.shape == (6, 1)  # class k's column only
            np.testing.assert_allclose(h[:, 0], X @ b, rtol=1e-12)
            np.testing.assert_allclose(t[:, 0], X @ A[:, k], rtol=1e-12)
            np.testing.assert_array_equal(c, t * h)
            assert c.sum() == pytest.approx(s[k], rel=1e-12)

    def test_extract_maps_row_major(self):
        # eval_forward keeps each example's locations in X's order, so a
        # map reshaped to (n1, n2) puts location row*n2 + col at [row, col]
        n1, n2, f = 2, 3, 4
        X = np.zeros((5, n1 * n2, f))
        X[3, 1 * n2 + 2, 0] = 1.0
        cfg = TrainConfig(head="attention", batch_size=2)
        params = rank1(np.ones((f, 2)), np.eye(f)[0])
        _, maps = eval_forward(params, cfg, X, classes=[0, 1, 0, 1, 1])
        assert maps["c"].shape == (5, n1 * n2)
        grid = maps["h"][3].reshape(n1, n2)
        assert grid[1, 2] == 1.0 and np.count_nonzero(grid) == 1
        assert np.count_nonzero(maps["h"][[0, 1, 2, 4]]) == 0

    def test_feature_dim_mismatch(self):
        params = rank1(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ShapeError):
            graph_scores("attention", params, np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            graph_scores("per_class", {"A": np.zeros((4, 2)), "B_pc": np.zeros((4, 2))},
                         np.zeros((2, 3)))

    def test_second_order_requires_square_w(self):
        with pytest.raises(ShapeError):
            score_second_order(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_params_validation(self):
        X = np.zeros((2, 3))
        with pytest.raises(ShapeError):  # top-down and bottom-up disagree on f
            graph_scores("attention", {"A0": np.zeros((3, 2)), "b0": np.zeros((4, 1))}, X)
        with pytest.raises(ShapeError):  # rank components disagree on K
            graph_scores("rank_p", {"A0": np.zeros((3, 2)), "b0": np.zeros((3, 1)),
                                    "A1": np.zeros((3, 3)), "b1": np.zeros((3, 1))},
                         X, rank=2)
        with pytest.raises(ShapeError):  # per-class bottom-up needs one column per class
            graph_scores("per_class", {"A": np.zeros((3, 2)), "B_pc": np.zeros((3, 3))}, X)


class TestInit:
    def test_seeded_init_deterministic(self):
        cfg = TrainConfig(head="rank_p", rank=2, seed=9)
        p1 = init_head_params(cfg, 5, 3)
        p2 = init_head_params(cfg, 5, 3)
        for name in ("A0", "b0", "A1", "b1"):
            np.testing.assert_array_equal(p1[name], p2[name])
        other = init_head_params(TrainConfig(head="rank_p", rank=2, seed=10), 5, 3)
        assert not np.array_equal(p1["A0"], other["A0"])

    def test_init_scale_bound(self):
        p = init_head_params(TrainConfig(head="rank_p", rank=3, seed=1), 16, 4)
        bound = 1.0 / 4.0
        for r in range(3):
            assert p[f"A{r}"].shape == (16, 4) and p[f"b{r}"].shape == (16, 1)
            assert np.abs(p[f"A{r}"]).max() <= bound
            assert np.abs(p[f"b{r}"]).max() <= bound

    def test_uniform_init_shape_and_bound(self):
        f, K = 9, 4
        for head in ("avg_pool", "attention", "rank_p", "per_class", "pose_reg", "cbp"):
            cfg = TrainConfig(head=head, rank=2, hdim=6, sketch_dim=16, seed=7)
            for name, arr in init_head_params(cfg, f, K).items():
                if name.startswith("bias"):
                    np.testing.assert_array_equal(arr, np.zeros_like(arr))
                    continue
                fan_in = arr.shape[0]
                assert fan_in in (f, cfg.hdim, cfg.sketch_dim)
                assert arr.shape[1] in (1, K, cfg.hdim, 17)
                assert np.abs(arr).max() <= 1.0 / np.sqrt(fan_in)
