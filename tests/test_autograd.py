import numpy as np
import pytest

from attnpool.autograd import Tape, finite_diff_check
from attnpool.tensors import ShapeError


def _tape_with(value):
    tape = Tape()
    return tape, tape.leaf(np.asarray(value, dtype=np.float64))


class TestForward:
    def test_matmul(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        b = tape.leaf([[1.0], [1.0]])
        np.testing.assert_array_equal(tape.matmul(a, b).value, [[3.0], [7.0]])

    def test_matmul_shape_mismatch(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            tape.matmul(a, b)

    def test_add_subtract_elementwise(self):
        tape = Tape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([3.0, -4.0])
        np.testing.assert_array_equal(tape.add(a, b).value, [4.0, -2.0])
        np.testing.assert_array_equal(tape.subtract(a, b).value, [-2.0, 6.0])
        np.testing.assert_array_equal(tape.elementwise_mul(a, b).value, [3.0, -8.0])

    def test_no_broadcasting(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 2)))
        b = tape.leaf(np.zeros((1, 2)))
        for op in (tape.add, tape.subtract, tape.elementwise_mul):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_relu_and_scalar_mul(self):
        tape, a = _tape_with([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(tape.relu(a).value, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(tape.scalar_mul(a, -2.0).value, [2.0, 0.0, -4.0])

    def test_sum_and_sum_squares(self):
        tape, a = _tape_with([[1.0, -2.0], [3.0, 4.0]])
        assert float(tape.sum(a).value) == 6.0
        assert float(tape.sum_squares(a).value) == 30.0

    def test_softmax_xent_hand_value(self):
        tape, z = _tape_with([[0.0, 0.0]])
        loss = tape.softmax_xent(z, [0])
        assert float(loss.value) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_softmax_xent_large_logits_stable(self):
        tape, z = _tape_with([[1000.0, 0.0]])
        loss = tape.softmax_xent(z, [0])
        assert np.isfinite(loss.value)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_xent_hand_value(self):
        tape, z = _tape_with([[0.0, 0.0]])
        loss = tape.sigmoid_xent(z, [[1.0, 0.0]])
        assert float(loss.value) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_sigmoid_xent_large_logits_stable(self):
        tape, z = _tape_with([[1000.0, -1000.0]])
        loss = tape.sigmoid_xent(z, [[1.0, 0.0]])
        assert np.isfinite(loss.value)

    def test_unknown_op_rejected(self):
        tape, a = _tape_with([1.0])
        with pytest.raises(ValueError):
            tape.record("frobnicate", (a.id,))

    def test_record_rejects_foreign_node_id(self):
        tape = Tape()
        tape.leaf([1.0])
        with pytest.raises(ValueError):
            tape.record("relu", (5,))


class TestBackward:
    def test_matmul_gradients_hand(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        b = tape.leaf([[1.0], [1.0]])
        loss = tape.sum(tape.matmul(a, b))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, [[4.0], [6.0]])

    def test_fanout_accumulates(self):
        tape, x = _tape_with([1.0, 2.0])
        loss = tape.sum(tape.add(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_relu_subgradient_zero_at_zero(self):
        tape, x = _tape_with([-1.0, 0.0, 3.0])
        tape.backward(tape.sum(tape.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_softmax_xent_gradient_hand(self):
        tape, z = _tape_with([[0.0, 0.0]])
        tape.backward(tape.softmax_xent(z, [0]))
        np.testing.assert_allclose(z.grad, [[-0.5, 0.5]], atol=1e-12)

    def test_backward_requires_scalar(self):
        tape, x = _tape_with([1.0, 2.0])
        with pytest.raises(ShapeError):
            tape.backward(x)

    def test_leaf_untouched_by_graph_has_zero_grad(self):
        tape = Tape()
        x = tape.leaf([1.0])
        y = tape.leaf([2.0])
        tape.backward(tape.sum(x))
        np.testing.assert_array_equal(y.grad, [0.0])


class TestFiniteDifference:
    def _check(self, build, shapes, seed=0, tol=1e-6):
        rng = np.random.default_rng(seed)
        params = [rng.standard_normal(s) for s in shapes]
        assert finite_diff_check(build, params) <= tol

    def test_matmul_chain(self):
        def f(params):
            A, B = params
            tape = Tape()
            a, b = tape.leaf(A), tape.leaf(B)
            loss = tape.sum_squares(tape.matmul(a, b))
            tape.backward(loss)
            return float(loss.value), [a.grad, b.grad]

        self._check(f, [(3, 4), (4, 2)])

    def test_all_ops_composite(self):
        X = np.random.default_rng(1).standard_normal((4, 3))

        def f(params):
            A, b, c = params
            tape = Tape()
            na, nb, nc = tape.leaf(A), tape.leaf(b), tape.leaf(c)
            h = tape.relu(tape.matmul(tape.leaf(X), nb))         # (4, 1)
            t = tape.matmul(tape.leaf(X), na)                    # (4, 2)
            ones = tape.leaf(np.ones((1, 2)))
            comb = tape.elementwise_mul(t, tape.matmul(h, ones))
            z = tape.matmul(tape.leaf(np.ones((1, 4))), comb)    # (1, 2)
            z = tape.add(z, nc)
            z = tape.scalar_mul(tape.subtract(z, nc), 0.5)
            z = tape.add(z, nc)
            loss = tape.softmax_xent(z, [1])
            tape.backward(loss)
            return float(loss.value), [na.grad, nb.grad, nc.grad]

        self._check(f, [(3, 2), (3, 1), (1, 2)], seed=2)

    def test_sigmoid_xent_gradient(self):
        targets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

        def f(params):
            (Z,) = params
            tape = Tape()
            nz = tape.leaf(Z)
            loss = tape.sigmoid_xent(nz, targets)
            tape.backward(loss)
            return float(loss.value), [nz.grad]

        self._check(f, [(2, 3)], seed=4)

    def test_sum_squares_gradient(self):
        def f(params):
            (A,) = params
            tape = Tape()
            na = tape.leaf(A)
            loss = tape.sum_squares(na)
            tape.backward(loss)
            return float(loss.value), [na.grad]

        self._check(f, [(3, 3)], seed=5)
