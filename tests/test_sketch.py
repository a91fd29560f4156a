import numpy as np
import pytest

from attnpool.rng import SplitMix64
from attnpool.sketch import SketchParams, cbp_pool, count_sketch, tensor_sketch
from attnpool.tensors import ShapeError

DIMS = (1, 2, 7, 64)  # odd and even irfft lengths


def direct_circular_convolve(u, v):
    """O(d^2) reference: out[k] = sum_j u[j] * v[(k - j) mod d]."""
    d = len(u)
    return np.array([sum(u[j] * v[(k - j) % d] for j in range(d)) for k in range(d)])


def assert_rel_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(np.abs(want).max(), 1e-300))


class TestCountSketch:
    def test_hand_example(self):
        out = count_sketch(np.array([1.0, 2.0, 3.0]),
                           np.array([0, 2, 0]), np.array([1, -1, 1]), d=4)
        np.testing.assert_array_equal(out, [4.0, 0.0, -2.0, 0.0])

    def test_collisions_accumulate(self):
        out = count_sketch(np.array([1.0, 1.0]), np.array([1, 1]),
                           np.array([1, 1]), d=2)
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_linear_in_x(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        h = rng.integers(0, 8, size=6)
        s = rng.choice([-1, 1], size=6)
        np.testing.assert_allclose(count_sketch(x + y, h, s, 8),
                                   count_sketch(x, h, s, 8) + count_sketch(y, h, s, 8))

    def test_rejects_out_of_range_hash(self):
        with pytest.raises(ShapeError):
            count_sketch(np.ones(2), np.array([0, 5]), np.array([1, 1]), d=4)

    def test_rejects_table_mismatch(self):
        with pytest.raises(ShapeError):
            count_sketch(np.ones(3), np.array([0, 1]), np.array([1, 1, 1]), d=4)

    def test_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 9))
        h = rng.integers(0, 4, size=9)
        s = rng.choice([-1, 1], size=9)
        np.testing.assert_array_equal(count_sketch(X, h, s, 4),
                                      np.stack([count_sketch(x, h, s, 4) for x in X]))
        assert count_sketch(X[:0], h, s, 4).shape == (0, 4)
        np.testing.assert_array_equal(count_sketch(X[:, :0], h[:0], s[:0], 4), np.zeros((5, 4)))
        assert count_sketch(X[:, :0], h[:0], s[:0], 4).dtype == np.float64


class TestSketchParams:
    def test_from_seed_deterministic(self):
        p1 = SketchParams.from_seed(8, 16, seed=5)
        p2 = SketchParams.from_seed(8, 16, seed=5)
        np.testing.assert_array_equal(p1.h1, p2.h1)
        np.testing.assert_array_equal(p1.s2, p2.s2)
        assert p1.num_features == 8

    def test_tables_in_range(self):
        p = SketchParams.from_seed(32, 7, seed=11)
        assert p.h1.min() >= 0 and p.h1.max() < 7
        assert set(np.unique(p.s1)) <= {-1, 1}

    @pytest.mark.parametrize("f,d,seed", [(32, 64, 5), (16, 1, 123), (7, 13, 2**63 + 7),
                                          (9, 2, 2**64 - 1)])
    def test_matches_scalar_draws(self, f, d, seed):
        rng = SplitMix64(seed)
        want = {}
        for h, s in (("h1", "s1"), ("h2", "s2")):
            want[h] = [rng.next_below(d) for _ in range(f)]
            want[s] = [1 - 2 * (rng.next_u64() & 1) for _ in range(f)]
        p = SketchParams.from_seed(f, d, seed)
        for name, values in want.items():
            table = getattr(p, name)
            assert table.dtype == np.int64
            assert table.tolist() == values

    def test_rejects_empty_sketch(self):
        for d in (0, -3):
            with pytest.raises(ValueError, match="sketch dimension"):
                SketchParams.from_seed(4, d, seed=1)

    def test_rejects_bad_tables(self):
        with pytest.raises(ShapeError):
            SketchParams(d=4, h1=np.array([0, 9]), h2=np.array([0, 1]),
                         s1=np.array([1, -1]), s2=np.array([1, 1]), seed=0)
        with pytest.raises(ValueError):
            SketchParams(d=4, h1=np.array([0, 1]), h2=np.array([0, 1]),
                         s1=np.array([1, 2]), s2=np.array([1, 1]), seed=0)
        with pytest.raises(ShapeError):
            SketchParams(d=4, h1=np.array([0, 1, 2]), h2=np.array([0, 1]),
                         s1=np.array([1, 1]), s2=np.array([1, 1]), seed=0)


class TestTensorSketch:
    def test_is_conv_of_count_sketches(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10)
        for d in DIMS:
            p = SketchParams.from_seed(10, d, seed=4)
            expected = direct_circular_convolve(count_sketch(x, p.h1, p.s1, d),
                                                count_sketch(x, p.h2, p.s2, d))
            assert_rel_close(tensor_sketch(x, p), expected)

    def test_one_hot_lands_at_hash_sum(self):
        # a convolution, not a correlation: bins h1 and h2 add modulo d
        p = SketchParams(d=5, h1=np.array([3, 0]), h2=np.array([4, 1]),
                         s1=np.array([-1, 1]), s2=np.array([1, 1]), seed=0)
        np.testing.assert_allclose(tensor_sketch(np.array([2.0, 0.0]), p),
                                   [0.0, 0.0, -4.0, 0.0, 0.0], atol=1e-12)

    def test_unbiased_inner_product(self):
        # E[<TS(x), TS(y)>] = <x, y>^2 over sketch seeds
        rng = np.random.default_rng(42)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        target = float(np.dot(x, y)) ** 2
        trials = 3000
        vals = np.empty(trials)
        for seed in range(trials):
            p = SketchParams.from_seed(8, 32, seed)
            vals[seed] = float(np.dot(tensor_sketch(x, p), tensor_sketch(y, p)))
        se = vals.std(ddof=1) / np.sqrt(trials)
        assert abs(vals.mean() - target) <= 4 * se


class TestCbpPool:
    def test_sum_of_row_sketches(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 6))
        for d in DIMS:
            p = SketchParams.from_seed(6, d, seed=9)
            expected = sum(direct_circular_convolve(count_sketch(row, p.h1, p.s1, d),
                                                    count_sketch(row, p.h2, p.s2, d))
                           for row in X)
            assert_rel_close(cbp_pool(X, p), expected)

    def test_normalize_unit_norm(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 5))
        p = SketchParams.from_seed(5, 8, seed=2)
        out = cbp_pool(X, p, normalize=True)
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_feature_mismatch(self):
        p = SketchParams.from_seed(5, 8, seed=2)
        with pytest.raises(ShapeError):
            cbp_pool(np.zeros((3, 4)), p)

