import numpy as np
import pytest

from attnpool import autograd
from attnpool.autograd import ShapeError, Tape, finite_diff_check


def _tape_with(value):
    tape = Tape()
    return tape, tape.leaf(np.asarray(value, dtype=np.float64))


def _sq_norm(tape, a):
    """sum(a^2) of a node: sq_error against zero targets with unit weights."""
    return tape.sq_error(a, np.zeros_like(a.value), np.ones_like(a.value))


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

    def test_add_elementwise_mul_and_sq_error(self):
        tape = Tape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([3.0, -4.0])
        np.testing.assert_array_equal(tape.add(a, b).value, [4.0, -2.0])
        np.testing.assert_array_equal(tape.elementwise_mul(a, b).value, [3.0, -8.0])
        assert float(tape.sq_error(a, b.value, np.ones(2)).value) == 40.0  # (-2)^2 + 6^2

    def test_no_broadcasting(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 2)))
        b = tape.leaf(np.zeros((1, 2)))
        for op in (tape.add, tape.elementwise_mul):
            with pytest.raises(ShapeError):
                op(a, b)
        for targets, weights in ((b.value, a.value), (a.value, b.value)):
            with pytest.raises(ShapeError, match="sq_error shape mismatch"):
                tape.sq_error(a, targets, weights)

    def test_mlp_as_relu_and_scalar_mul(self):
        tape = Tape()
        x = np.array([[-1.0], [0.0], [2.0]])
        one, zero = tape.leaf([[1.0]]), tape.leaf([[0.0]])
        # mlp with unit weights and zero biases is relu itself
        np.testing.assert_array_equal(tape.mlp(x, one, zero, one, zero).value,
                                      [[0.0], [0.0], [2.0]])
        np.testing.assert_array_equal(tape.scalar_mul(tape.leaf(x), -2.0).value,
                                      [[2.0], [0.0], [-4.0]])

    def test_mlp_hand_values(self):
        tape = Tape()
        X = np.array([[1.0, 2.0], [-1.0, 0.0]])
        W1 = tape.leaf([[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])  # X W1 = [[1, 1, 2], [-1, 1, 0]]
        b1 = tape.leaf([[-1.0, 0.5, 0.0]])                   # relu: [[0, 1.5, 2], [0, 1.5, 0]]
        W2 = tape.leaf([[5.0, 1.0], [2.0, 0.0], [1.0, -1.0]])
        b2 = tape.leaf([[0.25, 0.0]])
        out = tape.mlp(X, W1, b1, W2, b2)
        np.testing.assert_array_equal(out.value, [[5.25, -2.0], [3.25, 0.0]])
        assert out.parents == (W1.id, b1.id, W2.id, b2.id)  # X is data, not a parent

    def test_mlp_shape_errors(self):
        tape = Tape()
        X = np.zeros((4, 3))
        W1, b1, W2, b2 = (tape.leaf(np.zeros(shape)) for shape in ((3, 5), (1, 5), (5, 2), (1, 2)))
        tape.mlp(X, W1, b1, W2, b2)
        for bad in ((np.zeros((4, 2)), W1, b1, W2, b2),           # X's width is not W1's rows
                    (np.zeros(3), W1, b1, W2, b2),
                    (X, W1, tape.leaf(np.zeros((5,))), W2, b2),      # each bias is one (1, k) row
                    (X, W1, tape.leaf(np.zeros((4, 5))), W2, b2),
                    (X, W1, b1, tape.leaf(np.zeros((4, 2))), b2),   # W2's rows are W1's columns
                    (X, W1, b1, W2, tape.leaf(np.zeros((1, 3))))):
            with pytest.raises(ShapeError, match="mlp shape mismatch"):
                tape.mlp(*bad)

    def test_sq_error_hand_values(self):
        tape, a = _tape_with([[1.0, -2.0], [3.0, 4.0]])
        assert float(_sq_norm(tape, a).value) == 30.0
        # r = (a - T) * W = [[0, -2], [3, 0]]
        loss = tape.sq_error(a, np.array([[1.0, 0.0], [0.0, 4.0]]),
                             np.array([[2.0, 1.0], [1.0, 0.5]]))
        assert float(loss.value) == 13.0 and loss.parents == (a.id,)

    def test_linear_hand_value_and_shape_errors(self):
        tape = Tape()
        w = tape.leaf([[1.0], [-1.0]])
        out = tape.linear(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]]), w)
        np.testing.assert_array_equal(out.value, [[-1.0], [-1.0], [5.0]])
        assert out.op == "linear" and out.parents == (w.id,)
        for X in (np.zeros((3, 3)), np.zeros(2), np.zeros((1, 3, 2))):
            with pytest.raises(ShapeError, match="linear shape mismatch"):
                tape.linear(X, w)
        with pytest.raises(ShapeError):
            tape.linear(np.zeros((3, 1)), tape.leaf(np.zeros(1)))

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

    def test_segment_ops_hand_values(self):
        tape = Tape()
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        h = tape.leaf([[1.0], [0.0], [2.0], [-1.0]])
        x = tape.leaf(X)
        np.testing.assert_array_equal(tape.segment_sum(x, 2).value, [[4.0, 6.0], [12.0, 14.0]])
        np.testing.assert_array_equal(tape.segment_sum(x, 1).value, X)
        # per block of 2 rows: X_b^T h_b
        np.testing.assert_array_equal(tape.pool(X, h, 2).value, [[1.0, 2.0], [3.0, 4.0]])

    def test_segment_ops_shape_errors(self):
        tape = Tape()
        X = np.zeros((6, 2))
        with pytest.raises(ShapeError):  # 6 rows are not blocks of 4
            tape.segment_sum(tape.leaf(X), 4)
        with pytest.raises(ShapeError):
            tape.pool(X, tape.leaf(np.zeros((6, 1))), 4)
        with pytest.raises(ShapeError):  # h must be one column of X's rows
            tape.pool(X, tape.leaf(np.zeros((6, 2))), 3)

    def test_add_row_and_cols_hand_values(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        row = tape.leaf([[10.0, 0.0, -1.0]])
        np.testing.assert_array_equal(tape.add_row(a, row).value,
                                      [[11.0, 2.0, 2.0], [14.0, 5.0, 5.0]])
        np.testing.assert_array_equal(tape.cols(a, 2, 3).value, [[3.0], [6.0]])
        np.testing.assert_array_equal(tape.cols(a, 0, 2).value, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(tape.cols(a, 0, 3).value, a.value)

    def test_add_row_and_cols_shape_errors(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3)))
        for bad_row in (np.zeros((3,)), np.zeros((2, 3)), np.zeros((1, 2)), np.zeros((3, 1))):
            with pytest.raises(ShapeError):  # the row must be (1, k)
                tape.add_row(a, tape.leaf(bad_row))
        with pytest.raises(ShapeError):
            tape.add_row(tape.leaf(np.zeros(3)), tape.leaf(np.zeros((1, 3))))
        for start, stop in ((0, 4), (-1, 2), (2, 2), (2, 1), (3, 4)):
            with pytest.raises(ShapeError):  # an empty or out-of-range slice
                tape.cols(a, start, stop)
        with pytest.raises(ShapeError):
            tape.cols(tape.leaf(np.zeros(3)), 0, 1)


class TestBackward:
    def test_matmul_gradients_hand(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        b = tape.leaf([[1.0], [1.0]])
        loss = _sq_norm(tape, tape.matmul(a, b))  # a b = [[3], [7]], so g = [[6], [14]]
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, [[6.0, 6.0], [14.0, 14.0]])
        np.testing.assert_array_equal(b.grad, [[48.0], [68.0]])

    def test_fanout_accumulates(self):
        tape, x = _tape_with([1.0, 2.0])
        loss = _sq_norm(tape, tape.add(x, x))  # g = 2 (x + x) = [4, 8] on each branch
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [8.0, 16.0])

    def test_relu_subgradient_zero_at_zero(self):
        tape, w = _tape_with([[-1.0], [0.0], [3.0]])
        one = tape.leaf([[1.0]])
        # with X = I, mlp's relu(w) + 1 keeps the gradient at the zero entry nonzero:
        # g = [2, 2, 8]
        tape.backward(_sq_norm(tape, tape.mlp(np.eye(3), w, tape.leaf([[0.0]]), one, one)))
        np.testing.assert_array_equal(w.grad, [[0.0], [0.0], [8.0]])

    def test_relu_gradient_is_bitwise_g_times_mask(self):
        """mlp's hidden gradient is dH * mask, dH = g W2^T, with the signed
        zeros of a negative dH kept.  It is no node's value, so this pins the
        two products that read it: each is bitwise that product of the
        masked array."""
        rng = np.random.default_rng(5)
        X, W1 = rng.standard_normal((40, 6)), rng.standard_normal((6, 8))
        b1, W2, b2 = rng.standard_normal((1, 8)), rng.standard_normal((8, 5)), np.zeros((1, 5))
        X[0], b1[0, :3] = 0.0, 0.0  # pre-activations exactly 0 in row 0, columns 0..2
        g = rng.standard_normal((40, 5))
        pre = X @ W1 + b1
        dH = (g @ W2.T) * (pre > 0.0)
        masked_negative = (pre <= 0.0) & (g @ W2.T < 0.0)  # these entries hold -0.0
        assert np.all(pre[0, :3] == 0.0) and masked_negative.any()
        assert np.all(np.signbit(dH[masked_negative]))
        tape = Tape()
        gW1, gb1, _, _ = tape.mlp(X, *(tape.leaf(p) for p in (W1, b1, W2, b2))).grad_fn(g)
        for got, want in ((gW1, X.T @ dH), (gb1, np.ones((1, 40)) @ dH)):
            assert got.tobytes() == want.tobytes()

    def test_softmax_xent_gradient_hand(self):
        tape, z = _tape_with([[0.0, 0.0]])
        tape.backward(tape.softmax_xent(z, [0]))
        np.testing.assert_allclose(z.grad, [[-0.5, 0.5]], atol=1e-12)

    def test_backward_requires_scalar(self):
        tape, x = _tape_with([1.0, 2.0])
        with pytest.raises(ShapeError):
            tape.backward(x)

    def test_add_row_and_cols_gradients_hand(self):
        tape = Tape()
        a = tape.leaf([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        row = tape.leaf([[0.0, 0.0, 0.0]])
        s = tape.add_row(a, row)
        # two slices of one node, both in the loss:
        # 2 * sum of squares of col 0 + sum of squares of cols 1..2
        loss = tape.add(tape.scalar_mul(_sq_norm(tape, tape.cols(s, 0, 1)), 2.0),
                        _sq_norm(tape, tape.cols(s, 1, 3)))
        tape.backward(loss)
        g = [[4.0, 4.0, 6.0], [16.0, 10.0, 12.0]]
        np.testing.assert_array_equal(a.grad, g)
        np.testing.assert_array_equal(row.grad, [[20.0, 14.0, 18.0]])

    def test_add_row_gradient_sums_rows_by_matmul(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        a = tape.leaf(rng.standard_normal((50, 4)))
        row = tape.leaf(rng.standard_normal((1, 4)))
        w = rng.standard_normal((50, 4))
        tape.backward(tape.sq_error(tape.add_row(a, row), np.zeros((50, 4)), w))
        g = 2.0 * (a.value + row.value) * w * w
        np.testing.assert_array_equal(row.grad, np.ones((1, 50)) @ g)

    def test_mlp_is_bitwise_the_numpy_composition(self):
        """At the desk shape (a batch of 32 examples of 7x7 locations, f=32,
        hdim 128, 17 channels), mlp's value and its four parameters' gradients
        are bitwise those of the separate products, row additions and relu."""
        rng = np.random.default_rng(12)
        X, W1, b1 = (rng.standard_normal(s) for s in ((1568, 32), (32, 128), (1, 128)))
        W2, b2, g = (rng.standard_normal(s) for s in ((128, 17), (1, 17), (1568, 17)))
        pre = X @ W1 + b1
        H = np.maximum(pre, 0.0)
        dH = (g @ W2.T) * (pre > 0.0)
        ones = np.ones((1, 1568))
        want = [H @ W2 + b2, X.T @ dH, ones @ dH, H.T @ g, ones @ g]
        tape = Tape()
        out = tape.mlp(X, *(tape.leaf(p) for p in (W1, b1, W2, b2)))
        for got, w in zip([out.value, *out.grad_fn(g)], want):
            assert got.shape == w.shape and got.tobytes() == w.tobytes()

    def test_dead_relu_layer_gets_exact_zero_grads(self):
        """Backward runs mlp's dead hidden layer's zero gradients through;
        no NaN appears."""
        rng = np.random.default_rng(4)
        X = np.abs(rng.standard_normal((6, 3)))
        tape = Tape()
        W = tape.leaf(-np.abs(rng.standard_normal((3, 4))))  # every pre-activation below 0
        bias = tape.leaf(np.full((1, 4), -0.5))
        W2 = tape.leaf(rng.standard_normal((4, 2)))
        bias2 = tape.leaf(np.zeros((1, 2)))
        assert np.all(X @ W.value + bias.value < 0.0)
        logits = tape.mlp(X, W, bias, W2, bias2)
        tape.backward(tape.softmax_xent(logits, [0, 1, 0, 0, 1, 0]))
        for node in (W, bias, W2):
            assert np.all(np.isfinite(node.grad))
            np.testing.assert_array_equal(node.grad, np.zeros_like(node.value))
        assert np.all(np.isfinite(bias2.grad)) and np.any(bias2.grad)

    def test_leaf_untouched_by_graph_has_zero_grad(self):
        tape = Tape()
        x = tape.leaf([1.0])
        y = tape.leaf([2.0])
        tape.backward(_sq_norm(tape, x))
        np.testing.assert_array_equal(x.grad, [2.0])
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_linear_gradient_is_bitwise_x_transpose_g(self):
        rng = np.random.default_rng(13)
        X, W, g = (rng.standard_normal(s) for s in ((40, 6), (6, 3), (40, 3)))
        tape = Tape()
        out = tape.linear(X, tape.leaf(W))
        (gW,) = out.grad_fn(g)
        assert out.value.tobytes() == (X @ W).tobytes() and gW.tobytes() == (X.T @ g).tobytes()

    def test_sq_error_is_bitwise_the_numpy_chain(self):
        """sq_error's value and gradient are bitwise those of the chain it
        replaces: d = a - T, r = d * W, sum(r * r), with the gradient of
        each step applied in turn."""
        rng = np.random.default_rng(14)
        A, T, W = (rng.standard_normal((30, 16)) for _ in range(3))
        for g in (1.0, 0.37):
            r = (A - T) * W
            want_value, want_grad = (r * r).sum(), (2.0 * g * r) * W
            tape = Tape()
            a = tape.leaf(A)
            loss = tape.sq_error(a, T, W)
            (got,) = loss.grad_fn(np.float64(g))
            assert loss.value.tobytes() == np.float64(want_value).tobytes()
            assert got.tobytes() == want_grad.tobytes()


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
            loss = _sq_norm(tape, tape.matmul(a, b))
            tape.backward(loss)
            return float(loss.value), [a.grad, b.grad]

        self._check(f, [(3, 4), (4, 2)])

    def test_all_ops_composite(self):
        rng = np.random.default_rng(1)
        X, T = rng.standard_normal((4, 3)), rng.standard_normal((4, 1))
        W = rng.uniform(size=(4, 1))

        def f(params):
            A, b, c = params
            tape = Tape()
            na, nb, nc = tape.leaf(A), tape.leaf(b), tape.leaf(c)
            one, zero = tape.leaf([[1.0]]), tape.leaf([[0.0]])
            h = tape.mlp(X, nb, zero, one, zero)                 # relu(X b), (4, 1)
            t = tape.linear(X, na)                               # (4, 2)
            ones = tape.leaf(np.ones((1, 2)))
            comb = tape.elementwise_mul(t, tape.matmul(h, ones))
            z = tape.matmul(tape.leaf(np.ones((1, 4))), comb)    # (1, 2)
            z = tape.add(z, nc)
            z = tape.scalar_mul(tape.add_row(z, nc), 0.5)
            fit = tape.scalar_mul(tape.sq_error(h, T, W), 0.1)
            loss = tape.add(tape.softmax_xent(z, [1]), fit)
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

    def test_sq_error_gradient(self):
        """sq_error's gradient, with targets and weights."""
        T, W = np.random.default_rng(6).standard_normal((2, 3, 3))

        def f(params):
            (A,) = params
            tape = Tape()
            na = tape.leaf(A)
            loss = tape.sq_error(na, T, W)
            tape.backward(loss)
            return float(loss.value), [na.grad]

        self._check(f, [(3, 3)], seed=5)

    @pytest.mark.parametrize("B,n", [(3, 1), (1, 5), (2, 3)])
    def test_segment_ops(self, B, n):
        """segment_sum and pool, with pool's h differentiated and
        per-example sums of h h through segment_sum."""
        f, K = 3, 2
        labels = np.arange(B) % K
        X = np.random.default_rng(B * 10 + n + 1).standard_normal((B * n, f))

        def build(params):
            b, A = params
            tape = Tape()
            nb, nA = tape.leaf(b), tape.leaf(A)
            h = tape.linear(X, nb)                                         # (Bn, 1)
            pooled = tape.matmul(tape.pool(X, h, n), nA)                   # (B, K)
            summed = tape.matmul(tape.segment_sum(tape.elementwise_mul(h, h), n),
                                 tape.leaf(np.ones((1, K))))
            loss = tape.softmax_xent(tape.add(pooled, tape.scalar_mul(summed, 0.5)), labels)
            tape.backward(loss)
            return float(loss.value), [nb.grad, nA.grad]

        self._check(build, [(f, 1), (f, K)], seed=B * 10 + n)

    @pytest.mark.parametrize("r", [1, 7])
    def test_add_row_and_cols(self, r):
        """A two-layer MLP as one mlp node with two column slices of its
        output that both feed the loss, as pose_reg's "out" does, and logits
        pooled by one slice, with a bias row added by add_row."""
        X = np.random.default_rng(r).standard_normal((r, 3))
        target = np.random.default_rng(r + 1).standard_normal((r, 2))

        def build(params):
            tape = Tape()
            nW1, nb1, nW2, nb2, nc = (tape.leaf(p) for p in params)
            out = tape.mlp(X, nW1, nb1, nW2, nb2)                           # (r, 3)
            h = tape.cols(out, 2, 3)
            logits = tape.add_row(tape.pool(X, h, r), nc)                   # (1, 3)
            fit = tape.sq_error(tape.cols(out, 0, 2), target, np.ones((r, 2)))
            loss = tape.add(tape.softmax_xent(logits, [1]), tape.scalar_mul(fit, 0.1))
            tape.backward(loss)
            return float(loss.value), [nW1.grad, nb1.grad, nW2.grad, nb2.grad, nc.grad]

        self._check(build, [(3, 5), (1, 5), (5, 3), (1, 3), (1, 3)], seed=20 + r)

    def test_mlp_all_inputs(self):
        """mlp's gradients to all four parameter inputs."""
        X = np.random.default_rng(9).standard_normal((4, 3))

        def build(params):
            tape = Tape()
            nodes = [tape.leaf(p) for p in params]
            loss = _sq_norm(tape, tape.mlp(X, *nodes))
            tape.backward(loss)
            return float(loss.value), [node.grad for node in nodes]

        self._check(build, [(3, 5), (1, 5), (5, 2), (1, 2)], seed=8)


class TestAttend:
    """Tape.attend: X_r b and X_r^T (X_r b) read from a split in place."""

    M, N, F, K = 9, 4, 6, 3
    ROWS = [7, 2, 2, 8, 0]  # shuffled, with a repeat

    def _data(self):
        rng = np.random.default_rng(21)
        return (rng.standard_normal((self.M, self.N, self.F)), rng.standard_normal((self.F, 1)),
                rng.standard_normal((self.F, self.K)))

    def _loss(self, tape, pooled, A):
        """Class loss on the pooled features; h, an array, takes no gradient."""
        labels = np.arange(len(pooled.value)) % A.shape[1]
        return tape.softmax_xent(tape.matmul(pooled, tape.leaf(A)), labels)

    def _attend(self, X, rows, b, A):
        tape = Tape()
        bn = tape.leaf(b)
        [(h, pooled)] = tape.attend(X, rows, [bn])
        tape.backward(self._loss(tape, pooled, A))
        return h, pooled.value, bn.grad

    def _reference(self, X, rows, b, A):
        """pool(linear(Xs, b)) on the stacked batch X[rows]."""
        tape = Tape()
        bn = tape.leaf(b)
        Xs = X[rows].reshape(-1, self.F)
        h = tape.linear(Xs, bn)
        pooled = tape.pool(Xs, h, self.N)
        tape.backward(self._loss(tape, pooled, A))
        return h.value, pooled.value, bn.grad

    def test_one_block_is_bitwise_pool_of_matmul(self):
        X, b, A = self._data()
        assert len(self.ROWS) * self.N * self.F <= autograd.BLOCK_VALUES
        for rows in (np.array(self.ROWS), np.arange(2, 6)):  # a copy, and a view
            for got, want in zip(self._attend(X, rows, b, A), self._reference(X, rows, b, A)):
                assert np.array_equal(got, want)
        for got, want in zip(self._attend(X, slice(1, 4), b, A),
                             self._reference(X, np.arange(1, 4), b, A)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("examples_per_block", [1, 2])
    def test_blocks_of_examples_match_pool_of_matmul(self, monkeypatch, examples_per_block):
        # n*f above BLOCK_VALUES gives one example per block; two leave a ragged last block
        monkeypatch.setattr(autograd, "BLOCK_VALUES", examples_per_block * self.N * self.F)
        X, b, A = self._data()
        for got, want in zip(self._attend(X, np.array(self.ROWS), b, A),
                             self._reference(X, np.array(self.ROWS), b, A)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("examples_per_block", [1, 64])
    def test_finite_difference_on_b(self, monkeypatch, examples_per_block):
        monkeypatch.setattr(autograd, "BLOCK_VALUES", examples_per_block * self.N * self.F)
        X, b, A = self._data()
        rows = np.array(self.ROWS)

        def f(params):
            tape = Tape()
            bn = tape.leaf(params[0])
            [(_, pooled)] = tape.attend(X, rows, [bn])
            loss = self._loss(tape, pooled, A)
            tape.backward(loss)
            return float(loss.value), [bn.grad]

        assert finite_diff_check(f, [b]) < 1e-6

    def test_one_pair_per_bottom_up_vector(self):
        X, b, _ = self._data()
        tape = Tape()
        bs = [tape.leaf(b), tape.leaf(2.0 * b)]
        (h0, p0), (h1, p1) = tape.attend(X, np.array(self.ROWS), bs)
        assert [p.parents for p in (p0, p1)] == [(bs[0].id,), (bs[1].id,)]
        assert isinstance(h0, np.ndarray) and isinstance(h1, np.ndarray)  # maps are arrays
        np.testing.assert_array_equal(h1, 2.0 * h0)
        np.testing.assert_array_equal(p1.value, 2.0 * p0.value)

    def test_shape_errors(self):
        X, b, _ = self._data()
        tape = Tape()
        for bad_b in (np.zeros((self.F + 1, 1)), np.zeros(self.F), np.zeros((self.F, 2))):
            with pytest.raises(ShapeError):
                tape.attend(X, [0, 1], [tape.leaf(bad_b)])
        for bad_rows in ([0, self.M], [-1], [[0, 1]]):
            with pytest.raises(ShapeError):
                tape.attend(X, bad_rows, [tape.leaf(b)])
        with pytest.raises(ShapeError):  # X must be a stack of (n, f) maps
            tape.attend(X[0], [0], [tape.leaf(b)])

    def test_no_rows(self):
        X, b, _ = self._data()
        tape = Tape()
        bn = tape.leaf(b)
        [(h, pooled)] = tape.attend(X, np.zeros(0, dtype=np.int64), [bn])
        assert h.shape == (0, 1) and pooled.value.shape == (0, self.F)
        tape.backward(_sq_norm(tape, pooled))
        np.testing.assert_array_equal(bn.grad, np.zeros((self.F, 1)))


class TestAttendClassMaps:
    """Tape.attend with readout vectors: each component's map X_e u_e per
    example, from the same pass over the split as its bottom-up map and
    pooled features.  The vectors here are the examples' class columns
    A[:, class_e], as the trainer passes them."""

    M, N, F, K = 9, 4, 6, 3
    ROWS = [7, 2, 2, 8, 0]  # shuffled, with a repeat
    CLASSES = [2, 0, 2, 1, 1]  # classes 1 and 2 twice each

    def _components(self, P):
        rng = np.random.default_rng(30 + P)
        return [(rng.standard_normal((self.F, 1)), rng.standard_normal((self.F, self.K)))
                for _ in range(P)]

    def _readout(self, A, classes):
        return A[:, classes].T.reshape(len(classes), self.F, 1)

    def _maps_and_scores(self, X, rows, comps, classes, reference):
        """Every component's (h, t), then c = sum_p t_p h_p and the scores
        sum_p pooled_p A_p; the reference takes the stacked batch X[rows]
        through linear and pool, and each example's t is the numpy product
        X_e u_e."""
        tape = Tape()
        bs, As = [tape.leaf(b) for b, _ in comps], [tape.leaf(A) for _, A in comps]
        us = [self._readout(A, classes) for _, A in comps]
        if reference:
            Xb = X[rows]
            Xs = Xb.reshape(-1, self.F)
            parts = []
            for b, u in zip(bs, us):
                h = tape.linear(Xs, b)
                parts.append((h.value, tape.pool(Xs, h, self.N), (Xb @ u).reshape(-1, 1)))
        else:
            parts = tape.attend(X, rows, bs, us)
        c = scores = None
        for (h, pooled, t), A in zip(parts, As):
            cp, sp = t * h, tape.matmul(pooled, A)
            c = cp if c is None else c + cp
            scores = sp if scores is None else tape.add(scores, sp)
        return [m for h, _, t in parts for m in (h, t)] + [c, scores.value]

    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("examples_per_block", [1, 2, 64])
    def test_bitwise_of_the_stacked_batch_reference(self, monkeypatch, P, examples_per_block):
        # 1 and 2 examples per block split the batch of 5 (2: a ragged last block)
        monkeypatch.setattr(autograd, "BLOCK_VALUES", examples_per_block * self.N * self.F)
        X = np.random.default_rng(29).standard_normal((self.M, self.N, self.F))
        comps = self._components(P)
        for rows in (np.array(self.ROWS), slice(2, 7)):
            got = self._maps_and_scores(X, rows, comps, self.CLASSES, reference=False)
            want = self._maps_and_scores(X, rows, comps, self.CLASSES, reference=True)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    def test_no_rows(self):
        X = np.random.default_rng(29).standard_normal((self.M, self.N, self.F))
        tape = Tape()
        (b, _), = self._components(1)
        [(h, pooled, t)] = tape.attend(X, np.zeros(0, dtype=np.int64), [tape.leaf(b)],
                                       [np.zeros((0, self.F, 1))])
        assert h.shape == t.shape == (0, 1) and pooled.value.shape == (0, self.F)

    def test_maps_are_arrays_and_pooled_has_b_as_only_parent(self):
        """t, like h, is an array, not a node: attend records one node per
        b, pooled, a child of b alone, and takes no class or top-down node."""
        X = np.random.default_rng(29).standard_normal((self.M, self.N, self.F))
        tape = Tape()
        comps = self._components(2)
        bs = [tape.leaf(b) for b, _ in comps]
        parts = tape.attend(X, np.array(self.ROWS), bs,
                            [self._readout(A, self.CLASSES) for _, A in comps])
        assert [pooled.parents for _, pooled, _ in parts] == [(bs[0].id,), (bs[1].id,)]
        assert all(isinstance(m, np.ndarray) for h, _, t in parts for m in (h, t))
        assert len(tape.nodes) == 2 + 2

    def test_class_shape_errors(self):
        """One (B, f, 1) readout array per bottom-up vector, or ShapeError."""
        X = np.random.default_rng(29).standard_normal((self.M, self.N, self.F))
        (b, A), = self._components(1)
        tape = Tape()
        bn, u = tape.leaf(b), self._readout(A, self.CLASSES)
        rows = np.array(self.ROWS)
        for us in ([u[:4]],                              # one vector per example
                   [],                                   # one array per b
                   [u, u],
                   [np.zeros((5, self.F + 1, 1))],       # vectors of f rows
                   [u[:, :, 0]]):                        # (B, f, 1), not (B, f)
            with pytest.raises(ShapeError):
                tape.attend(X, rows, [bn], us)

    @pytest.mark.parametrize("examples_per_block", [1, 64])
    def test_finite_difference_through_class_maps(self, monkeypatch, examples_per_block):
        """With leaf b and leaf A, the scores' gradients, recorded in the
        same pass as the maps of A's class columns, agree with finite
        differences."""
        monkeypatch.setattr(autograd, "BLOCK_VALUES", examples_per_block * self.N * self.F)
        X = np.random.default_rng(29).standard_normal((self.M, self.N, self.F))
        rows = np.array(self.ROWS)
        (b, A), = self._components(1)

        def f(params):
            tape = Tape()
            bn, An = tape.leaf(params[0]), tape.leaf(params[1])
            [(_, pooled, _)] = tape.attend(X, rows, [bn], [self._readout(An.value, self.CLASSES)])
            loss = tape.softmax_xent(tape.matmul(pooled, An), self.CLASSES)
            tape.backward(loss)
            return float(loss.value), [bn.grad, An.grad]

        assert finite_diff_check(f, [b, A]) < 1e-6


# Hand-computed values of matmul and elementwise_mul, the ShapeError they
# raise, and the evaluation order that the low-rank identity relies on.

def _matmul(a, b):
    tape = Tape()
    return tape.matmul(tape.leaf(a), tape.leaf(b)).value


def _elementwise_mul(u, v):
    tape = Tape()
    return tape.elementwise_mul(tape.leaf(u), tape.leaf(v)).value


class TestMatmul:
    def test_identity_case(self):
        out = _matmul(np.eye(2), np.array([[2.0], [3.0]]))
        np.testing.assert_array_equal(out, [[2.0], [3.0]])

    def test_hand_computed(self):
        out = _matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(out, [[3.0], [7.0]])

    def test_zero_case(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(_matmul(np.zeros((2, 2)), b), np.zeros((2, 5)))

    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        assert np.array_equal(_matmul(np.eye(4), a), a)
        assert np.array_equal(_matmul(a, np.eye(4)), a)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            _matmul(np.zeros((2, 3)), np.zeros((2, 2)))


class TestElementwiseMul:
    def test_ones(self):
        np.testing.assert_array_equal(
            _elementwise_mul(np.array([2.0, 3.0]), np.array([1.0, 1.0])), [2.0, 3.0])

    def test_hand_computed(self):
        np.testing.assert_array_equal(
            _elementwise_mul(np.array([1.0, -2.0]), np.array([3.0, 4.0])), [3.0, -8.0])

    def test_zero(self):
        u = np.array([5.0, -1.0, 2.0])
        np.testing.assert_array_equal(_elementwise_mul(u, np.zeros(3)), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            _elementwise_mul(np.zeros(2), np.zeros(3))


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
