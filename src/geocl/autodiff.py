"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` is a node that a backward reaches: a leaf to train, or the
result of an op over one. It wraps an ndarray and remembers how it was
produced; calling ``backward`` on a scalar loss fills ``grad`` on every
Tensor it reaches. The op set is deliberately closed to what the engine
calls: arithmetic, matmul, square, sqrt, elementwise tanh, transpose, a
column gather, sums, norms, softmax cross-entropy and Huber. A fused op
with a hand-written backward (the cross-entropy, and the product-distance
kernel in ``geocl.diffgeo``) reads its operands with ``_value``, builds its
node with ``_make`` and hands its gradients to ``_accum``.

Whatever does not train is a plain value: every operand of an op may be
an ndarray, and either operand of an arithmetic op a float. A node keeps
as parents only its operands that are Tensors, and an op given none
returns a plain array, so forward-only work (evaluation, a frozen model's
features) makes no Tensor. A node's backward computes the gradients of its
Tensor operands and of no other: a product with frozen weights forms no
gradient for them. A column gather's backward adds run by run
(``col_runs``, ``add_cols``), in the order ``np.add.at`` would.

Graphs are per-step and single-threaded; accumulation order is fixed, so
identical inputs give bit-identical gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("value", "grad", "_parents", "_backward")
    # An ndarray left of + or * defers to the Tensor's operator (a node);
    # left of - or / it raises TypeError instead of making object arrays.
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    # -- operator sugar; the other operand may be a plain value ----------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def backward(self):
        if self.value.size != 1:
            raise ContractViolation("backward requires a scalar root")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                order.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _value(x):
    """The array of a Tensor, or a plain operand as it is: what an op
    computes with, whether or not the operand trains."""
    return x.value if isinstance(x, Tensor) else x


def _make(value, parents, backward):
    """The node of ``value`` over those of its operands ``parents`` that are
    Tensors (the others are plain values or None); ``value`` itself when
    none is."""
    nodes = tuple(p for p in parents if isinstance(p, Tensor))
    return Tensor(value, nodes, backward) if nodes else value


def _accum(t: Tensor, g: np.ndarray):
    g = _unbroadcast(np.asarray(g, dtype=float), t.value.shape)
    t.grad = g if t.grad is None else t.grad + g


# -- arithmetic; either operand may be a plain value --------------------

def add(a, b):
    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g)
        if isinstance(b, Tensor):
            _accum(b, g)

    return _make(_value(a) + _value(b), (a, b), bwd)


def sub(a, b):
    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g)
        if isinstance(b, Tensor):
            _accum(b, -g)

    return _make(_value(a) - _value(b), (a, b), bwd)


def mul(a, b):
    av, bv = _value(a), _value(b)

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g * bv)
        if isinstance(b, Tensor):
            _accum(b, g * av)

    return _make(av * bv, (a, b), bwd)


def div(a, b):
    av, bv = _value(a), _value(b)

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g / bv)
        if isinstance(b, Tensor):
            _accum(b, -g * av / (bv * bv))

    return _make(av / bv, (a, b), bwd)


def neg(a):
    return _make(-_value(a), (a,), lambda g: _accum(a, -g))


def square(a):
    av = _value(a)
    return _make(av * av, (a,), lambda g: _accum(a, 2.0 * g * av))


def sqrt(a):
    out = np.sqrt(_value(a))

    def bwd(g):
        _accum(a, g / (2.0 * out))

    return _make(out, (a,), bwd)


def matmul(a, b):
    av, bv = _value(a), _value(b)

    def bwd(g):
        if isinstance(a, Tensor):
            _accum(a, g @ bv.T)
        if isinstance(b, Tensor):
            _accum(b, av.T @ g)

    return _make(av @ bv, (a, b), bwd)


# -- elementwise tanh --------------------------------------------------

def tanh(a):
    out = np.tanh(_value(a))

    def bwd(g):
        _accum(a, g * (1.0 - out * out))

    return _make(out, (a,), bwd)


# -- shape ops ----------------------------------------------------------

def transpose2d(a):
    return _make(_value(a).T, (a,), lambda g: _accum(a, g.T))


def col_runs(cols: np.ndarray) -> tuple[tuple[slice, slice], ...]:
    """The runs of consecutive columns in ``cols``, in order: per run, its
    entries of ``cols`` and the columns they name. A column may repeat, but
    not within a run."""
    if not len(cols):
        return ()
    edges = [0, *(np.flatnonzero(np.diff(cols) != 1) + 1).tolist(), len(cols)]
    return tuple((slice(i, j), slice(int(cols[i]), int(cols[i]) + j - i))
                 for i, j in zip(edges[:-1], edges[1:]))


def add_cols(full: np.ndarray, runs, g: np.ndarray) -> None:
    """Add the columns of ``g`` into ``full`` at the columns they name, one
    slice add per run of :func:`col_runs`. The runs add in the order of
    their entries, as ``np.add.at`` adds repeated columns, so the sums are
    the same bit for bit."""
    for entries, columns in runs:
        full[:, columns] += g[:, entries]


def take_cols(a, cols: np.ndarray):
    """Gather the columns ``cols`` of a 2-D operand; a column may repeat."""
    # np.take keeps C order, which a[:, cols] does not.
    out = np.take(_value(a), cols, axis=1)

    def bwd(g):
        full = np.zeros_like(a.value)
        add_cols(full, col_runs(cols), g)
        _accum(a, full)

    return _make(out, (a,), bwd)


def sum_(a, axis=None, keepdims=False):
    # In C order: NumPy rounds a sum over an F-ordered array differently.
    out = np.asarray(_value(a), order="C").sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g, dtype=float)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.value.shape).copy())

    return _make(out, (a,), bwd)


def norm(a):
    """Zero-safe Euclidean norm along the last axis, which is kept."""
    return sqrt(sum_(square(a), axis=-1, keepdims=True) + 1e-30)


def huber(a, b):
    """Branch at |a-b| = 1: quadratic inside, linear outside."""
    diff = _value(a) - _value(b)
    absd = np.abs(diff)
    inside = absd <= 1.0
    out = np.where(inside, 0.5 * diff * diff, absd - 0.5)

    def bwd(g):
        d = np.where(inside, diff, np.sign(diff))
        if isinstance(a, Tensor):
            _accum(a, g * d)
        if isinstance(b, Tensor):
            _accum(b, -g * d)

    return _make(out, (a, b), bwd)


def cross_entropy(logits, labels):
    """Mean negative log softmax probability of the true labels of the rows
    of 2-D ``logits``; its gradient is (softmax - one-hot) / n."""
    lv = _value(logits)
    n = lv.shape[0]
    rows = np.arange(n)
    m = lv.max(axis=-1, keepdims=True)
    shifted = np.exp(lv - m)
    total = shifted.sum(axis=-1)
    out = (m[:, 0] + np.log(total) - lv[rows, labels]).sum() * (1.0 / n)

    def bwd(g):
        grad = (g * (1.0 / n)) * (shifted / total[:, None])
        grad[rows, labels] -= g * (1.0 / n)
        _accum(logits, grad)

    return _make(out, (logits,), bwd)


# -- finite-difference checking ----------------------------------------

def gradcheck(loss_builder, sampler, trials=1, h=1e-5, rng=None):
    """Worst relative error of reverse-mode vs central finite differences.

    ``sampler(rng)`` returns a dict of parameter arrays; ``loss_builder``
    maps a dict of operands to a scalar loss: Tensors to train, or the
    plain arrays of the finite differences.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(trials):
        arrays = sampler(rng)
        tensors = {k: Tensor(v.copy()) for k, v in arrays.items()}
        loss = loss_builder(tensors)
        loss.backward()
        for name, base in arrays.items():
            grad = tensors[name].grad
            if grad is None:
                grad = np.zeros_like(base)
            flat = base.reshape(-1)
            for i in range(flat.size):
                bumped = {k: v.copy() for k, v in arrays.items()}
                bumped[name].reshape(-1)[i] += h
                fp = float(loss_builder(bumped))
                bumped[name].reshape(-1)[i] -= 2 * h
                fm = float(loss_builder(bumped))
                fd = (fp - fm) / (2 * h)
                an = grad.reshape(-1)[i]
                err = abs(an - fd) / max(abs(fd), abs(an), 1e-8)
                worst = max(worst, err)
    return worst
