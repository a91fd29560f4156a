import math

import numpy as np
import pytest

from attnpool.rng import (float_stream, mix64, normal_stream, normals_from_u64,
                          u64_stream)
from splitmix_reference import SplitMix64


def scalar_normal(rng: SplitMix64) -> float:
    """Scalar Box-Muller reference: the cos branch of two u64 draws."""
    u1 = rng.next_u64()
    u2 = rng.next_u64()
    r = math.sqrt(-2.0 * math.log(((u1 >> 11) + 1) / 2.0**53))
    theta = 2.0 * math.pi * (u2 >> 11) / 2.0**53
    return r * math.cos(theta)


class TestScalarStream:
    def test_reference_vectors_seed_1234567(self):
        # published SplitMix64 reference outputs
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_zero_first_output(self):
        # first output of seed 0 is mix64(GOLDEN)
        from attnpool.rng import GOLDEN
        assert SplitMix64(0).next_u64() == mix64(GOLDEN)

    def test_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_float_range_and_value(self):
        rng = SplitMix64(9)
        check = SplitMix64(9)
        for _ in range(100):
            x = rng.next_float()
            assert 0.0 <= x < 1.0
            assert x == (check.next_u64() >> 11) * 2.0**-53

    def test_next_below_range(self):
        rng = SplitMix64(3)
        vals = [rng.next_below(7) for _ in range(200)]
        assert all(0 <= v < 7 for v in vals)
        assert len(set(vals)) == 7  # hits every residue at this sample size

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_below(0)



class TestVectorizedStreams:
    def test_u64_stream_matches_scalar(self):
        rng = SplitMix64(2024)
        scalar = [rng.next_u64() for _ in range(50)]
        vec = u64_stream(2024, 50)
        assert [int(v) for v in vec] == scalar

    def test_float_stream_matches_scalar(self):
        rng = SplitMix64(11)
        scalar = [rng.next_float() for _ in range(50)]
        np.testing.assert_array_equal(float_stream(11, 50), scalar)

    def test_normal_stream_matches_scalar_cos_branch(self):
        # even indices of the stream are the scalar generator's outputs
        rng = SplitMix64(23)
        scalar = [scalar_normal(rng) for _ in range(10)]
        vec = normal_stream(23, 20)
        np.testing.assert_allclose(vec[0::2], scalar, rtol=0, atol=0)

    def test_normal_stream_odd_count_is_prefix(self):
        np.testing.assert_array_equal(normal_stream(8, 9), normal_stream(8, 10)[:9])

    def test_normals_from_u64_matches_normal_stream(self):
        u = u64_stream(31, 12)
        np.testing.assert_array_equal(normals_from_u64(u), normal_stream(31, 12))

    def test_normals_from_u64_rejects_odd_length(self):
        with pytest.raises(ValueError):
            normals_from_u64(u64_stream(0, 3))
        with pytest.raises(ValueError):
            normals_from_u64(u64_stream(np.array([1, 2], dtype=np.uint64), 5))

    @pytest.mark.parametrize("count", [0, 1, 7, 1576])
    def test_u64_stream_rows_are_per_seed_streams(self, count):
        seeds = np.array([0, 1, 2**63 + 7, 2**64 - 1], dtype=np.uint64)
        rows = u64_stream(seeds, count)
        assert rows.shape == (len(seeds), count) and rows.dtype == np.uint64
        for seed, row in zip(seeds.tolist(), rows):
            assert row.tobytes() == u64_stream(seed, count).tobytes()

    @pytest.mark.parametrize("count", [2, 10, 1576])
    def test_normals_from_u64_rows_are_per_row_normals(self, count):
        seeds = np.array([3, 2**64 - 1, 0], dtype=np.uint64)
        u = u64_stream(seeds, 6 + count)[:, 6:]  # an offset, strided view
        z = normals_from_u64(u)
        assert z.shape == u.shape
        for seed, row in zip(seeds.tolist(), z):
            want = normals_from_u64(u64_stream(seed, 6 + count)[6:])
            assert row.tobytes() == want.tobytes()

    def test_stream_prefix_property(self):
        np.testing.assert_array_equal(u64_stream(77, 5), u64_stream(77, 20)[:5])


def test_normal_moments():
    z = normal_stream(1000, 20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_float_stream_is_roughly_uniform():
    x = float_stream(2000, 20000)
    assert abs(x.mean() - 0.5) < 0.01
    hist, _ = np.histogram(x, bins=10, range=(0, 1))
    assert hist.min() > 1700  # expected 2000 per bin
