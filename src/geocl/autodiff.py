"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` is a node that a backward reaches: a leaf to train, or the
result of an op over one. It wraps an ndarray and remembers how it was
produced; calling ``backward`` on a scalar loss fills ``grad`` on every
leaf it reaches. A Tensor has no arithmetic: an expression over one
raises ``TypeError``. The op set is closed to what the engine and its
checks call: the softmax cross-entropy over squared distances and the sum
that probes a gradient check. The rest of the engine's math is fused ops
with a hand-written backward (the product-distance kernel in
``geocl.diffgeo``; the backbone, the angular loss, the neighbor loss's
weighted mean and the total loss in ``geocl.model``); such an op reads its
operands with ``_value``, builds its node with ``_make`` and hands its
gradients to ``_accum``. A gradient arrives in its operand's shape: an op
states its own reductions (a bias sums its rows), and ``_accum`` raises
``ContractViolation`` for a gradient of any other shape. A gather of
columns adds its gradient back run by run (``col_runs``, ``add_cols``), in
the order ``np.add.at`` would.

Whatever does not train is a plain value: every operand of an op may be
an ndarray. A node keeps as parents only its operands that are Tensors,
and an op given none returns a plain array, so forward-only work
(evaluation, a frozen model's features) makes no Tensor. A node's backward
computes the gradients of its Tensor operands and of no other: a
distance to frozen prototypes forms no gradient for them.

Graphs are per-step and single-threaded; accumulation order is fixed, so
identical inputs give bit-identical gradients. A backward consumes its
graph: once a node with parents has passed its gradient on, it lets go of
its backward closure (and with it the arrays the op kept for it), its
parents and its gradient, so a spent loss holds no more than its value
and the leaves keep only their gradients. A graph is backpropagated once:
a backward that reaches a spent node raises ``ContractViolation``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


class Tensor:
    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def backward(self):
        """Fill ``grad`` on every leaf this scalar root reaches, and release
        the graph: each node with parents, this one included, drops its
        backward, its parents and its gradient as soon as it has passed the
        gradient on (or none reached it), and its parents read as None from
        then on. Every node keeps its value. A root that reaches a released
        node raises ``ContractViolation`` and changes no gradient."""
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
            if node._parents is None:
                raise ContractViolation("backward through a spent graph")
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._parents:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = node._parents = None


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
    """Add ``g``, a gradient of ``t``'s own shape, into ``t.grad``."""
    g = np.asarray(g, dtype=float)
    if g.shape != t.value.shape:
        raise ContractViolation(f"gradient of shape {g.shape} for a {t.value.shape} operand")
    t.grad = g if t.grad is None else t.grad + g


# -- column runs, for a gather's backward ------------------------------

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


# -- the probe and the loss ---------------------------------------------

def sum_(a):
    """The sum of every entry of ``a``, one node: the scalar probe of a
    gradient check."""
    # In C order: NumPy rounds a sum over an F-ordered array differently.
    out = np.asarray(_value(a), order="C").sum()
    return _make(out, (a,), lambda g: _accum(a, np.broadcast_to(g, a.value.shape).copy()))


def cross_entropy(sq_dists, labels):
    """Mean negative log softmax probability of the true labels, the logits
    being the negated squared distances ``sq_dists`` (rows, classes); its
    gradient is (one-hot - softmax) / n. Negation is exact, so the value and
    gradient are those of the CE of the logits bit for bit."""
    lv = -_value(sq_dists)
    n = lv.shape[0]
    rows = np.arange(n)
    m = lv.max(axis=-1, keepdims=True)
    shifted = np.exp(lv - m)
    total = shifted.sum(axis=-1)
    out = (m[:, 0] + np.log(total) - lv[rows, labels]).sum() * (1.0 / n)

    def bwd(g):
        grad = (g * (1.0 / n)) * (shifted / total[:, None])
        grad[rows, labels] -= g * (1.0 / n)
        _accum(sq_dists, -grad)

    return _make(out, (sq_dists,), bwd)


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
