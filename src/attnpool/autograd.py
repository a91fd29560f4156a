"""Tape-based reverse-mode automatic differentiation.

A Tape holds an append-only list of Nodes.  Each op is one Tape method:
it checks its input shapes, computes its value and appends a node that
carries its parent ids and its gradient function, a closure over the
input values, so a single reverse sweep in id order computes gradients.
A node is a parameter (`Tape.leaf`) or computed from one, and every node
gets a gradient.  Data, targets and the attention maps that evaluation
reads out are numpy arrays, passed to an op as arguments, never parents.
The op set is exactly what training the pooling heads needs; every
array is float64 and shapes are strict: add and elementwise_mul take
equal shapes, add_row adds one (1, k) row to every row, cols takes a
column slice, and no other op broadcasts or slices.  Ops that read data:
linear(X, w) is X W; pool(X, h, n) is X_b^T h_b per block of n rows;
mlp(X, W1, b1, W2, b2) records the two-layer perceptron
relu(X W1 + b1) W2 + b2 as one node; sq_error(a, T, W) is the squared
error ((a - T) * W)^2 summed; and `attend(X, rows, bs, us)` takes a
split's feature maps X (m, n, f) and the batch's row indices, and
records, for each bottom-up vector b, the pooled features X_r^T (X_r b)
as a child of b alone, returning the map X_r b and, given readout
vectors u (one (f, 1) column per example), each example's map X_e u_e as
arrays, reading X in place one cache-sized block of examples at a time.
The tape knows nothing of classes: the trainer picks each example's
class column and checks the class, in one place.

Conventions:
  - vectors are (n, 1) column matrices inside graphs;
  - scalar-valued nodes (losses) have shape ();
  - mlp's relu uses subgradient 0 at 0;
  - both cross-entropy losses are fused, numerically stable, and
    averaged over their leading (example) dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# Tape.attend reads a split's examples in blocks of at most this many values
# (512 KiB): a batch of 32 at 7 x 7 x 32, so desk-size steps make the same
# BLAS calls as one stacked batch, and one example at 7 x 7 x 2048 (784 KiB),
# which stays in a 2 MiB L2 cache between the products that read it.
BLOCK_VALUES = 2 ** 16


class ShapeError(ValueError):
    """Raised, by every module, when operand shapes do not conform."""


@dataclass
class Node:
    id: int
    value: np.ndarray
    op: str
    parents: tuple
    grad_fn: object = field(default=None, repr=False)
    grad: np.ndarray = field(default=None, repr=False)


class Tape:
    """Append-only record of a computation; single-writer."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _push(self, op, value, parents=(), grad_fn=None) -> Node:
        """Append a node; `grad_fn(g)` maps its output gradient to one
        gradient per parent."""
        node = Node(id=len(self.nodes), value=np.asarray(value, dtype=np.float64), op=op,
                    parents=tuple(p.id for p in parents), grad_fn=grad_fn)
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        """A differentiable input (a parameter)."""
        return self._push("leaf", value)

    def matmul(self, a, b):
        A, B = a.value, b.value
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {A.shape} x {B.shape}")
        return self._push("matmul", A @ B, (a, b), lambda g: (g @ B.T, A.T @ g))

    def linear(self, X, w):
        """Data times a node: X (r, k), w (k, c) -> X W (r, c)."""
        W = w.value
        if X.ndim != 2 or W.ndim != 2 or X.shape[1] != W.shape[0]:
            raise ShapeError(f"linear shape mismatch: {X.shape} x {W.shape}")
        return self._push("linear", X @ W, (w,), lambda g: (X.T @ g,))

    def add(self, a, b):
        if a.value.shape != b.value.shape:
            raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
        return self._push("add", a.value + b.value, (a, b), lambda g: (g, g))

    def add_row(self, a, row):
        """a + row for every row of a: a (r, k), row (1, k) -> (r, k)."""
        A, R = a.value, row.value
        if A.ndim != 2 or R.shape != (1, A.shape[1]):
            raise ShapeError(f"add_row shape mismatch: {A.shape} + row {R.shape}")
        # the row's gradient sums g's rows as one BLAS product: faster than
        # g.sum(axis=0), whose summation order also differs
        return self._push("add_row", A + R, (a, row), lambda g: (
            g, np.ones((1, g.shape[0])) @ g))

    def cols(self, a, start, stop):
        """Columns start..stop-1 of a (r, k) node: (r, stop - start)."""
        A, start, stop = a.value, int(start), int(stop)
        if A.ndim != 2 or not 0 <= start < stop <= A.shape[1]:
            raise ShapeError(f"cols [{start}, {stop}) out of range for {A.shape}")

        def grad_fn(g):
            ga = np.zeros_like(A)
            ga[:, start:stop] = g
            return (ga,)

        return self._push("cols", A[:, start:stop], (a,), grad_fn)

    def scalar_mul(self, a, c):
        c = float(c)
        return self._push("scalar_mul", c * a.value, (a,), lambda g: (c * g,))

    def elementwise_mul(self, a, b):
        A, B = a.value, b.value
        if A.shape != B.shape:
            raise ShapeError(f"elementwise_mul shape mismatch: {A.shape} vs {B.shape}")
        return self._push("elementwise_mul", A * B, (a, b), lambda g: (g * B, g * A))

    def segment_sum(self, a, n):
        """Sums of consecutive blocks of n rows: (B*n, k) -> (B, k)."""
        A, n = a.value, int(n)
        if A.ndim != 2 or n < 1 or A.shape[0] % n:
            raise ShapeError(f"segment_sum: {A.shape} rows are not segments of {n}")
        return self._push("segment_sum", A.reshape(A.shape[0] // n, n, A.shape[1]).sum(axis=1),
                          (a,), lambda g: (np.repeat(g, n, axis=0),))

    def pool(self, X, h, n):
        """Per block of n rows, X_b^T h_b: X (B*n, f), h (B*n, 1) -> (B, f)."""
        hv, n = h.value, int(n)
        if X.ndim != 2 or hv.shape != (X.shape[0], 1) or n < 1 or X.shape[0] % n:
            raise ShapeError(f"pool shape mismatch: {X.shape}, {hv.shape}, segments of {n}")
        B, f = X.shape[0] // n, X.shape[1]

        def grad_fn(g):  # dh_b = X_b g_b
            return ((X.reshape(B, n, f) @ g.reshape(B, f, 1)).reshape(B * n, 1),)

        return self._push("pool", (hv.reshape(B, 1, n) @ X.reshape(B, n, f)).reshape(B, f),
                          (h,), grad_fn)

    def attend(self, X, rows, bs, us=None):
        """Bottom-up maps and pooled features of examples `rows` of a split,
        read in place: X (m, n, f), rows a slice or 1-D index array of B
        examples, bs a sequence of (f, 1) nodes.  Returns one (h, pooled)
        pair per b: the map h = X_r b (B*n, 1), an array, and the node
        pooled, per example X_r^T h_r (B, f), with b as its only parent.

        With us (one (B, f, 1) array of per-example readout vectors per b),
        each entry is a triple (h, pooled, t): t is, per example e, the map
        X_e u_e (B*n, 1), an array.  Maps are read out, never differentiated.

        Examples go through in blocks of at most BLOCK_VALUES values, each
        read by every product of a pass while it is in cache (forward X_r b,
        X_r^T h_r and, with us, X_r u; backward X_r g then X_r^T dh).
        A block of consecutive rows, such as a single example, is a view of
        X; only a block of several shuffled rows is copied.  When one block
        holds the batch, values and gradients are bitwise those of
        pool(matmul(X[rows], b)), and t is bitwise X[rows] @ u.
        """
        if X.ndim != 3:
            raise ShapeError(f"attend needs (m, n, f) feature maps, got {X.shape}")
        m, n, f = X.shape
        if isinstance(rows, slice):  # in range, and with step 1 one run of rows
            run, rows = rows.step in (None, 1), np.arange(m)[rows]
        else:
            run, rows = False, np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or len(rows) and (rows.min() < 0 or rows.max() >= m):
                raise ShapeError(f"attend rows must be a 1-D array of indices in [0, {m})")
        for b in bs:
            if b.value.shape != (f, 1):
                raise ShapeError(f"attend shape mismatch: maps {X.shape} x {b.value.shape}")
        B, step = len(rows), max(1, BLOCK_VALUES // max(1, n * f))
        if us is not None and (len(us) != len(bs) or any(u.shape != (B, f, 1) for u in us)):
            raise ShapeError(f"attend needs one ({B}, {f}, 1) readout array per bottom-up "
                             f"vector, got {[u.shape for u in us]}")
        spans = [(s, min(s + step, B)) for s in range(0, B, step)]
        blocks = [_take(X, rows[s:e], run).reshape((e - s) * n, f) for s, e in spans]

        def pooled_grad(g):  # per example dh = X_b g_b; db = X_r^T dh
            return (_total([Xs.T @ (Xs.reshape(e - s, n, f) @ g[s:e].reshape(e - s, f, 1))
                            .reshape((e - s) * n, 1)
                            for (s, e), Xs in zip(spans, blocks)], f),)

        out = []
        for p, b in enumerate(bs):
            h, pooled = np.empty((B * n, 1)), np.empty((B, f))
            if us is not None:
                t, u = np.empty((B * n, 1)), us[p]
            for (s, e), Xs in zip(spans, blocks):
                np.matmul(Xs, b.value, out=h[s * n:e * n])
                np.matmul(h[s * n:e * n].reshape(e - s, 1, n), Xs.reshape(e - s, n, f),
                          out=pooled[s:e].reshape(e - s, 1, f))
                if us is not None:
                    np.matmul(Xs.reshape(e - s, n, f), u[s:e],
                              out=t[s * n:e * n].reshape(e - s, n, 1))
            out.append((h, self._push("attend_pool", pooled, (b,), pooled_grad))
                       + ((t,) if us is not None else ()))
        return out

    def mlp(self, X, W1, b1, W2, b2):
        """relu(X W1 + b1) W2 + b2 as one node: X (r, f), W1 (f, k), b1 (1, k),
        W2 (k, c), b2 (1, c) -> (r, c), with the nodes W1, b1, W2, b2 as
        parents; values and gradients are bitwise those of linear, add_row,
        relu, matmul and add_row recorded as separate nodes.

        The biases and relu go in place onto the products; backward masks
        the hidden gradient in place with relu's mask, kept from forward.
        """
        W1v, b1v, W2v, b2v = W1.value, b1.value, W2.value, b2.value
        if (X.ndim != 2 or W1v.ndim != 2 or W2v.ndim != 2 or X.shape[1] != W1v.shape[0]
                or W1v.shape[1] != W2v.shape[0] or b1v.shape != (1, W1v.shape[1])
                or b2v.shape != (1, W2v.shape[1])):
            raise ShapeError(f"mlp shape mismatch: {X.shape} x {W1v.shape} + row {b1v.shape}"
                             f", then x {W2v.shape} + row {b2v.shape}")
        H = X @ W1v
        H += b1v
        mask = H > 0.0  # dH * mask keeps the signed zeros of a negative dH
        np.maximum(H, 0.0, out=H)
        out = H @ W2v
        out += b2v

        def grad_fn(g):
            dH = g @ W2v.T
            dH *= mask
            ones = np.ones((1, g.shape[0]))
            return X.T @ dH, ones @ dH, H.T @ g, ones @ g

        return self._push("mlp", out, (W1, b1, W2, b2), grad_fn)

    def sq_error(self, a, targets, weights):
        """Weighted squared error sum(((a - T) * W)^2) of a node a against
        arrays T and W of its shape."""
        A = a.value
        if targets.shape != A.shape or weights.shape != A.shape:
            raise ShapeError(f"sq_error shape mismatch: {A.shape} vs targets "
                             f"{targets.shape}, weights {weights.shape}")
        r = (A - targets) * weights
        return self._push("sq_error", np.float64((r * r).sum()), (a,),
                          lambda g: ((2.0 * float(g) * r) * weights,))

    def softmax_xent(self, logits, labels):
        z, labels = logits.value, np.asarray(labels, dtype=np.int64)
        rows = np.arange(z.shape[0])
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        s = e.sum(axis=1, keepdims=True)
        lse = (m + np.log(s))[:, 0]

        def grad_fn(g):
            p = e / s
            p[rows, labels] -= 1.0
            return (float(g) * p / z.shape[0],)

        return self._push("softmax_xent", np.float64(np.mean(lse - z[rows, labels])),
                          (logits,), grad_fn)

    def sigmoid_xent(self, logits, targets):
        z, t = logits.value, np.asarray(targets, dtype=np.float64)

        def grad_fn(g):
            s = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
            return (float(g) * (s - t) / z.size,)

        # mean over all entries of max(z,0) - z*t + log1p(exp(-|z|))
        value = np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))))
        return self._push("sigmoid_xent", np.float64(value), (logits,), grad_fn)

    def backward(self, loss: Node) -> None:
        """Reverse sweep from `loss`; gradients accumulate across fan-out.

        Every node gets a gradient: zeros if `loss` does not depend on it.
        """
        if np.asarray(loss.value).size != 1:
            raise ShapeError(f"loss must be scalar, got shape {np.asarray(loss.value).shape}")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes[: loss.id + 1]):
            if node.grad_fn is None or node.grad is None:
                continue
            for i, pg in zip(node.parents, node.grad_fn(node.grad)):
                parent = self.nodes[i]
                parent.grad = pg if parent.grad is None else parent.grad + pg
        for node in self.nodes:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)


def _take(X, rows, run=False):
    """X[rows] of a nonempty 1-D index array: a view when rows are one
    ascending run (known to be one when run is true)."""
    start, B = rows[0], len(rows)
    if run or B == 1 or rows[-1] - start == B - 1 and (np.diff(rows) == 1).all():
        return X[start:start + B]
    return X[rows]


def _total(parts, f):
    """Sum of a list of (f, 1) gradient parts, in order; zeros for none."""
    return sum(parts[1:], parts[0]) if parts else np.zeros((f, 1))


def finite_diff_check(f, params, step=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f(params) -> (loss, grads)` must be pure and deterministic; grads is a
    list of arrays matching `params`.  Relative error per coordinate is
    |analytic - numeric| / (1 + |numeric|).
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]
    _, grads = f(params)
    worst = 0.0
    for j, p in enumerate(params):
        analytic = np.asarray(grads[j], dtype=np.float64)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            plus, _ = f(params)
            p[idx] = orig - step
            minus, _ = f(params)
            p[idx] = orig
            numeric = (float(plus) - float(minus)) / (2.0 * step)
            err = abs(float(analytic[idx]) - numeric) / (1.0 + abs(numeric))
            worst = max(worst, err)
    return worst
