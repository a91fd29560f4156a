"""Tape-based reverse-mode automatic differentiation.

A Tape holds an append-only list of Nodes; each non-leaf node stores its
op tag and parent ids, so a single reverse sweep in id order computes
gradients.  Leaves (`Tape.leaf`, parameters) need a gradient; constants
(`Tape.const`, data, selectors and targets) do not, and a node needs one
when any of its parents does.  The sweep visits only nodes that need a
gradient and computes a matmul's input gradient only for the inputs that
need it, so a constant's grad stays None.  The op set is exactly what
the pooling heads need; every array is float64 and shapes are strict:
add, subtract and elementwise_mul take equal shapes, and the only
broadcast is col_mul's (rows, k) times (rows, 1).

Conventions:
  - vectors are (n, 1) column matrices inside graphs;
  - scalar-valued nodes (losses) have shape ();
  - relu uses subgradient 0 at 0;
  - both cross-entropy losses are fused, numerically stable, and
    averaged over their leading (example) dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensors import ShapeError


@dataclass
class Node:
    id: int
    value: np.ndarray
    op: str
    parents: tuple
    aux: object = None
    needs: bool = True
    grad: np.ndarray = field(default=None, repr=False)


def _stable_softmax(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_xent_forward(z, labels):
    m = z.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))[:, 0]
    picked = z[np.arange(z.shape[0]), labels]
    return np.float64(np.mean(lse - picked))


def _sigmoid_xent_forward(z, targets):
    # mean over all entries of max(z,0) - z*t + log1p(exp(-|z|))
    return np.float64(np.mean(np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))))


def _forward(op, vals, aux):
    if op == "matmul":
        a, b = vals
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
        return a @ b
    if op == "add":
        a, b = vals
        if a.shape != b.shape:
            raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
        return a + b
    if op == "subtract":
        a, b = vals
        if a.shape != b.shape:
            raise ShapeError(f"subtract shape mismatch: {a.shape} vs {b.shape}")
        return a - b
    if op == "scalar_mul":
        (a,) = vals
        return float(aux) * a
    if op == "elementwise_mul":
        a, b = vals
        if a.shape != b.shape:
            raise ShapeError(f"elementwise_mul shape mismatch: {a.shape} vs {b.shape}")
        return a * b
    if op == "col_mul":
        a, col = vals
        if a.ndim != 2 or col.shape != (a.shape[0], 1):
            raise ShapeError(f"col_mul shape mismatch: {a.shape} vs column {col.shape}")
        return a * col
    if op == "segment_sum":
        (a,) = vals
        if a.ndim != 2 or aux < 1 or a.shape[0] % aux:
            raise ShapeError(f"segment_sum: {a.shape} rows are not segments of {aux}")
        return a.reshape(a.shape[0] // aux, aux, a.shape[1]).sum(axis=1)
    if op == "pool":
        X, h = vals
        if (X.ndim != 2 or h.shape != (X.shape[0], 1) or aux < 1
                or X.shape[0] % aux):
            raise ShapeError(f"pool shape mismatch: {X.shape}, {h.shape}, segments of {aux}")
        B, f = X.shape[0] // aux, X.shape[1]
        return (h.reshape(B, 1, aux) @ X.reshape(B, aux, f)).reshape(B, f)
    if op == "relu":
        (a,) = vals
        return np.maximum(a, 0.0)
    if op == "sum":
        (a,) = vals
        return np.float64(a.sum())
    if op == "sum_squares":
        (a,) = vals
        return np.float64((a * a).sum())
    if op == "softmax_xent":
        (z,) = vals
        return _softmax_xent_forward(z, aux)
    if op == "sigmoid_xent":
        (z,) = vals
        return _sigmoid_xent_forward(z, aux)
    raise ValueError(f"unknown op tag: {op!r}")


def _backward(op, g, vals, out, aux, needs):
    """Gradients for the parents; None where a parent needs none."""
    if op == "matmul":
        a, b = vals
        return [g @ b.T if needs[0] else None, a.T @ g if needs[1] else None]
    if op == "add":
        return [g, g]
    if op == "subtract":
        return [g, -g]
    if op == "scalar_mul":
        return [float(aux) * g]
    if op == "elementwise_mul":
        a, b = vals
        return [g * b, g * a]
    if op == "col_mul":
        a, col = vals
        return [g * col, (g * a).sum(axis=1, keepdims=True)]
    if op == "segment_sum":
        return [np.repeat(g, aux, axis=0)]
    if op == "pool":
        X, h = vals
        B, f = g.shape
        # X_b^T h_b per segment b: dX_b = h_b g_b^T, dh_b = X_b g_b
        return [(h.reshape(B, aux, 1) * g.reshape(B, 1, f)).reshape(B * aux, f)
                if needs[0] else None,
                (X.reshape(B, aux, f) @ g.reshape(B, f, 1)).reshape(B * aux, 1)
                if needs[1] else None]
    if op == "relu":
        (a,) = vals
        return [g * (a > 0.0)]
    if op == "sum":
        (a,) = vals
        return [np.full_like(a, float(g))]
    if op == "sum_squares":
        (a,) = vals
        return [2.0 * float(g) * a]
    if op == "softmax_xent":
        (z,) = vals
        p = _stable_softmax(z)
        p[np.arange(z.shape[0]), aux] -= 1.0
        return [float(g) * p / z.shape[0]]
    if op == "sigmoid_xent":
        (z,) = vals
        s = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        return [float(g) * (s - aux) / z.size]
    raise ValueError(f"unknown op tag: {op!r}")


class Tape:
    """Append-only record of a computation; single-writer."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _push(self, value, op, parents, aux=None, needs=True) -> Node:
        node = Node(id=len(self.nodes), value=np.asarray(value, dtype=np.float64),
                    op=op, parents=tuple(parents), aux=aux, needs=needs)
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        """A differentiable input (a parameter)."""
        return self._push(value, "leaf", ())

    def const(self, value) -> Node:
        """An input that needs no gradient (data, selectors, targets)."""
        return self._push(value, "const", (), needs=False)

    def record(self, op, input_ids, aux=None) -> Node:
        """Compute `op` on existing nodes and append the result."""
        vals = []
        for i in input_ids:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"input node {i} not on tape")
            vals.append(self.nodes[i].value)
        needs = any(self.nodes[i].needs for i in input_ids)
        return self._push(_forward(op, vals, aux), op, input_ids, aux, needs)

    # convenience wrappers
    def matmul(self, a, b):
        return self.record("matmul", (a.id, b.id))

    def add(self, a, b):
        return self.record("add", (a.id, b.id))

    def subtract(self, a, b):
        return self.record("subtract", (a.id, b.id))

    def scalar_mul(self, a, c):
        return self.record("scalar_mul", (a.id,), aux=float(c))

    def elementwise_mul(self, a, b):
        return self.record("elementwise_mul", (a.id, b.id))

    def col_mul(self, a, col):
        """a (rows, k) times col (rows, 1), broadcast over a's columns."""
        return self.record("col_mul", (a.id, col.id))

    def segment_sum(self, a, n):
        """Sums of consecutive blocks of n rows: (B*n, k) -> (B, k)."""
        return self.record("segment_sum", (a.id,), aux=int(n))

    def pool(self, X, h, n):
        """Per block of n rows, X_b^T h_b: X (B*n, f), h (B*n, 1) -> (B, f)."""
        return self.record("pool", (X.id, h.id), aux=int(n))

    def relu(self, a):
        return self.record("relu", (a.id,))

    def sum(self, a):
        return self.record("sum", (a.id,))

    def sum_squares(self, a):
        return self.record("sum_squares", (a.id,))

    def softmax_xent(self, logits, labels):
        return self.record("softmax_xent", (logits.id,),
                           aux=np.asarray(labels, dtype=np.int64))

    def sigmoid_xent(self, logits, targets):
        return self.record("sigmoid_xent", (logits.id,),
                           aux=np.asarray(targets, dtype=np.float64))

    def backward(self, loss: Node) -> None:
        """Reverse sweep from `loss`; gradients accumulate across fan-out.

        Every node that needs a gradient gets one (zeros if `loss` does not
        depend on it); every other node's grad is None.
        """
        if np.asarray(loss.value).size != 1:
            raise ShapeError(f"loss must be scalar, got shape {np.asarray(loss.value).shape}")
        for node in self.nodes:
            node.grad = np.zeros_like(node.value) if node.needs else None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes[: loss.id + 1]):
            if not node.needs or not node.parents or not np.any(node.grad):
                continue
            parents = [self.nodes[i] for i in node.parents]
            gs = _backward(node.op, node.grad, [p.value for p in parents], node.value,
                           node.aux, [p.needs for p in parents])
            for parent, pg in zip(parents, gs):
                if parent.needs:
                    parent.grad = parent.grad + pg


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
