"""Tape-based reverse-mode automatic differentiation.

A Tape holds an append-only list of Nodes; each non-leaf node stores its
op tag and parent ids, so a single reverse sweep in id order computes
gradients for every leaf.  The op set is exactly what the pooling heads
need; shapes are strict (no broadcasting) and every array is float64.

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


def _backward(op, g, vals, out, aux):
    if op == "matmul":
        a, b = vals
        return [g @ b.T, a.T @ g]
    if op == "add":
        return [g, g]
    if op == "subtract":
        return [g, -g]
    if op == "scalar_mul":
        return [float(aux) * g]
    if op == "elementwise_mul":
        a, b = vals
        return [g * b, g * a]
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

    def _push(self, value, op, parents, aux=None) -> Node:
        node = Node(id=len(self.nodes), value=np.asarray(value, dtype=np.float64),
                    op=op, parents=tuple(parents), aux=aux)
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        return self._push(value, "leaf", ())

    def record(self, op, input_ids, aux=None) -> Node:
        """Compute `op` on existing nodes and append the result."""
        vals = []
        for i in input_ids:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"input node {i} not on tape")
            vals.append(self.nodes[i].value)
        return self._push(_forward(op, vals, aux), op, input_ids, aux)

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
        """Reverse sweep from `loss`; gradients accumulate across fan-out."""
        if np.asarray(loss.value).size != 1:
            raise ShapeError(f"loss must be scalar, got shape {np.asarray(loss.value).shape}")
        for node in self.nodes:
            node.grad = np.zeros_like(node.value)
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes[: loss.id + 1]):
            if node.op == "leaf" or not np.any(node.grad):
                continue
            vals = [self.nodes[i].value for i in node.parents]
            gs = _backward(node.op, node.grad, vals, node.value, node.aux)
            for pid, pg in zip(node.parents, gs):
                self.nodes[pid].grad = self.nodes[pid].grad + pg


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
