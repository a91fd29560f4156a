"""Matrix products of the tape ops, the ShapeError they raise, and the
evaluation order that the low-rank identity relies on."""

import numpy as np
import pytest

from attnpool.autograd import ShapeError, Tape


def matmul(a, b):
    tape = Tape()
    return tape.matmul(tape.leaf(a), tape.leaf(b)).value


def elementwise_mul(u, v):
    tape = Tape()
    return tape.elementwise_mul(tape.leaf(u), tape.leaf(v)).value


class TestMatmul:
    def test_identity_case(self):
        out = matmul(np.eye(2), np.array([[2.0], [3.0]]))
        np.testing.assert_array_equal(out, [[2.0], [3.0]])

    def test_hand_computed(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(out, [[3.0], [7.0]])

    def test_zero_case(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(matmul(np.zeros((2, 2)), b), np.zeros((2, 5)))

    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        assert np.array_equal(matmul(np.eye(4), a), a)
        assert np.array_equal(matmul(a, np.eye(4)), a)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))


class TestElementwiseMul:
    def test_ones(self):
        np.testing.assert_array_equal(
            elementwise_mul(np.array([2.0, 3.0]), np.array([1.0, 1.0])), [2.0, 3.0])

    def test_hand_computed(self):
        np.testing.assert_array_equal(
            elementwise_mul(np.array([1.0, -2.0]), np.array([3.0, 4.0])), [3.0, -8.0])

    def test_zero(self):
        u = np.array([5.0, -1.0, 2.0])
        np.testing.assert_array_equal(elementwise_mul(u, np.zeros(3)), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise_mul(np.zeros(2), np.zeros(3))


def test_evaluation_order_associativity():
    # (X a)^T (X b) == a^T (X^T (X b)) at f64 tolerance
    rng = np.random.default_rng(6)
    for _ in range(50):
        n, f = rng.integers(1, 12, size=2)
        X = rng.standard_normal((n, f))
        a = rng.standard_normal(f)
        b = rng.standard_normal(f)
        lhs = float((X @ a) @ (X @ b))
        rhs = float(a @ (X.T @ (X @ b)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
