import numpy as np
import pytest

from attnpool.autograd import ShapeError
from attnpool.sketch import CHUNK_VALUES, SketchParams, cbp_pool
from splitmix_reference import SplitMix64

DIMS = (1, 2, 7, 64)  # odd and even irfft lengths


def count_sketch(x, h, s, d):
    """Reference count sketch of one vector: out[h[i]] += s[i] * x[i]."""
    return np.bincount(h, weights=s * x, minlength=d)


def direct_circular_convolve(u, v):
    """O(d^2) reference: out[k] = sum_j u[j] * v[(k - j) mod d]."""
    d = len(u)
    return np.array([sum(u[j] * v[(k - j) % d] for j in range(d)) for k in range(d)])


def assert_rel_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(np.abs(want).max(), 1e-300))


class TestCountSketch:
    """The count sketch inside cbp_pool, read through a second table that
    sends every coordinate to bin 0 with sign +1: then the TensorSketch of
    x is sum(x) times its first count sketch."""

    @staticmethod
    def first_sketch_times_sum(x, h, s, d):
        p = SketchParams(d=d, h1=np.array(h), h2=np.zeros(len(h), dtype=np.int64),
                         s1=np.array(s), s2=np.ones(len(h), dtype=np.int64))
        return cbp_pool(np.array(x, dtype=np.float64)[None], p)

    def test_hand_example(self):
        out = self.first_sketch_times_sum([1.0, 2.0, 3.0], [0, 2, 0], [1, -1, 1], d=4)
        np.testing.assert_array_equal(out, 6.0 * np.array([4.0, 0.0, -2.0, 0.0]))

    def test_collisions_accumulate(self):
        out = self.first_sketch_times_sum([1.0, 1.0], [1, 1], [1, 1], d=2)
        np.testing.assert_array_equal(out, 2.0 * np.array([0.0, 2.0]))

    def test_linear_in_x(self):
        # linear in each location's x x^T: a map's sketch sums its rows' sketches
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((3, 6)), rng.standard_normal((4, 6))
        p = SketchParams.from_seed(6, 8, seed=1)
        np.testing.assert_allclose(cbp_pool(np.vstack((X, Y)), p),
                                   cbp_pool(X, p) + cbp_pool(Y, p), rtol=1e-12, atol=1e-12)

    def test_rejects_out_of_range_hash(self):
        with pytest.raises(ShapeError):  # a hash equal to d is one past the last bin
            SketchParams(d=4, h1=np.array([0, 4]), h2=np.array([0, 1]),
                         s1=np.array([1, 1]), s2=np.array([1, 1]))

    def test_rejects_table_mismatch(self):
        with pytest.raises(ShapeError):  # a sign table longer than its hash table
            SketchParams(d=4, h1=np.array([0, 1]), h2=np.array([0, 1]),
                         s1=np.array([1, 1, 1]), s2=np.array([1, 1]))

    def test_rows_equal_per_row_calls(self):
        # a stack of one-location maps is sketched row by row
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 9))
        p = SketchParams.from_seed(9, 4, seed=3)
        np.testing.assert_array_equal(cbp_pool(X[:, None], p),
                                      np.stack([cbp_pool(x[None], p) for x in X]))
        assert cbp_pool(X[:0, None], p).shape == (0, 4)


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
                         s1=np.array([1, -1]), s2=np.array([1, 1]))
        with pytest.raises(ValueError):
            SketchParams(d=4, h1=np.array([0, 1]), h2=np.array([0, 1]),
                         s1=np.array([1, 2]), s2=np.array([1, 1]))
        with pytest.raises(ShapeError):
            SketchParams(d=4, h1=np.array([0, 1, 2]), h2=np.array([0, 1]),
                         s1=np.array([1, 1]), s2=np.array([1, 1]))
        with pytest.raises(ShapeError):  # negative hash entry
            SketchParams(d=4, h1=np.array([0, 1]), h2=np.array([-1, 1]),
                         s1=np.array([1, 1]), s2=np.array([1, 1]))


class TestTensorSketch:
    def test_is_conv_of_count_sketches(self):
        # the TensorSketch of one vector is cbp_pool of a one-location map
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10)
        for d in DIMS:
            p = SketchParams.from_seed(10, d, seed=4)
            expected = direct_circular_convolve(count_sketch(x, p.h1, p.s1, d),
                                                count_sketch(x, p.h2, p.s2, d))
            assert_rel_close(cbp_pool(x[None], p), expected)

    def test_one_hot_lands_at_hash_sum(self):
        # a convolution, not a correlation: bins h1 and h2 add modulo d
        p = SketchParams(d=5, h1=np.array([3, 0]), h2=np.array([4, 1]),
                         s1=np.array([-1, 1]), s2=np.array([1, 1]))
        np.testing.assert_allclose(cbp_pool(np.array([2.0, 0.0])[None], p),
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
            vals[seed] = float(np.dot(cbp_pool(x[None], p), cbp_pool(y[None], p)))
        se = vals.std(ddof=1) / np.sqrt(trials)
        assert abs(vals.mean() - target) <= 4 * se


class TestCbpPool:
    def test_sum_of_row_sketches(self):
        # (n, f, d) with a map's f * f Gram entries below, equal to and
        # above its n * d per-location sketch values
        shapes = [(4, 6, d) for d in DIMS] + [(49, 32, 64), (4, 6, 10), (4, 6, 9), (49, 56, 64),
                                              (4, 6, 8), (49, 32, 16), (3, 7, 13)]
        for n, f, d in shapes:
            X = np.random.default_rng(n * f * d).standard_normal((2, n, f))
            p = SketchParams.from_seed(f, d, seed=9)
            expected = np.stack([sum(direct_circular_convolve(count_sketch(row, p.h1, p.s1, d),
                                                              count_sketch(row, p.h2, p.s2, d))
                                     for row in x) for x in X])
            assert_rel_close(cbp_pool(X[0], p), expected[0])
            assert_rel_close(cbp_pool(X, p), expected)

    def test_rejects_feature_mismatch(self):
        p = SketchParams.from_seed(5, 8, seed=2)
        with pytest.raises(ShapeError):
            cbp_pool(np.zeros((3, 4)), p)
        with pytest.raises(ShapeError):
            cbp_pool(np.zeros((2, 3, 4)), p)

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 3, 5)])
    def test_rejects_1d_and_4d(self, shape):
        with pytest.raises(ShapeError):
            cbp_pool(np.zeros(shape), SketchParams.from_seed(5, 8, seed=2))

    @pytest.mark.parametrize("d", (1, 2, 7, 64, 4096))
    def test_stack_equals_per_map_calls_bitwise(self, d):
        # f = 182 has more Gram entries than CHUNK_VALUES: one map per chunk
        n = 49
        for f in (6, 32, 182):
            p = SketchParams.from_seed(f, d, seed=11)
            step = max(1, CHUNK_VALUES // (f * f))
            rng = np.random.default_rng(d * f)
            for m in sorted({1, max(1, step - 1), step, step + 1, 3 * step + 2}):
                X = rng.standard_normal((m, n, f))
                want = np.stack([cbp_pool(x, p) for x in X])
                got = cbp_pool(X, p)
                assert got.shape == (m, d)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("m,n,f", [(32, 49, 32), (9, 5, 7), (67, 49, 32)],
                             ids=["f32_one_chunk", "f7_n5", "f32_partial_last_chunk"])
    def test_features_are_bitwise_the_self_transposed_gram_projection(self, m, n, f):
        """Pinned to the expression cbp_pool computed before: per chunk, the
        matmul of the chunk's transposed view with the chunk itself, and a
        bincount over bins rebuilt for the chunk."""
        d = 64
        p = SketchParams.from_seed(f, d, seed=11)
        X = np.random.default_rng(m * n * f).standard_normal((m, n, f))
        bins = ((p.h1[:, None] + p.h2) % d).ravel()
        signs = (p.s1[:, None] * p.s2).ravel().astype(np.float64)
        step = CHUNK_VALUES // (f * f)
        want = np.empty((m, d))
        for start in range(0, m, step):
            chunk = X[start:start + step]
            c = len(chunk)
            G = np.matmul(chunk.transpose(0, 2, 1), chunk).reshape(c, f * f)
            want[start:start + c] = np.bincount((np.arange(c)[:, None] * d + bins).ravel(),
                                                weights=(G * signs).ravel(),
                                                minlength=c * d).reshape(c, d)
        np.testing.assert_array_equal(cbp_pool(X, p).view(np.uint64), want.view(np.uint64))

    def test_empty_maps_and_stacks(self):
        p = SketchParams.from_seed(4, 8, seed=1)
        out = cbp_pool(np.zeros((0, 4)), p)
        assert out.shape == (8,) and not out.any()
        out = cbp_pool(np.zeros((3, 0, 4)), p)
        assert out.shape == (3, 8) and not out.any()
        assert cbp_pool(np.zeros((0, 5, 4)), p).shape == (0, 8)

    def test_no_features_gives_float_zeros(self):
        p = SketchParams.from_seed(0, 8, seed=1)
        for shape in ((5, 0), (3, 5, 0), (3, 0, 0), (0, 5, 0)):
            out = cbp_pool(np.zeros(shape), p)
            assert out.shape == shape[:-2] + (8,) and out.dtype == np.float64 and not out.any()
