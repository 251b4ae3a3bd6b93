"""Geometry incremental search: the submanifold pool, weight-sum selection,
thresholded factor choice, space expansion.

The pool is a ``MixedSpace`` over every candidate factor; its slices and
curvature signs never change. Its factors hold the live curvatures: the
search returns a re-curved pool, which the caller keeps. Selection weights
live only inside each step's search phase.

A pool of one flat factor (the ``euclidean`` baseline) is not searched: it
has no curvature to train, and the first step keeps its only factor
whatever its weight, so a search could change no run output."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import model as mdl
from .autodiff import Tensor
from .errors import ConfigurationError, NumericalDomainError
from .geometry import CURVATURE_FLOOR
from .product import FactorSpec, MixedSpace


def build_pool(feature_dim: int, sizes, mode: str = "mixed") -> MixedSpace:
    """Tile the feature coordinates with contiguous slices of each size.

    ``mixed`` assigns curvature -1 to the first half of the pool and +1 to
    the rest; ``euclidean`` builds a single zero-curvature factor covering
    every coordinate (the non-trainable Euclidean-limit baseline).
    """
    if mode == "euclidean":
        f = FactorSpec(pool_index=0, slice_start=1, slice_end=feature_dim, curvature=0.0)
        return MixedSpace((f,))
    if mode != "mixed":
        raise ConfigurationError(f"unknown pool mode '{mode}'")
    slices = []
    for size in sizes:
        if feature_dim % size != 0:
            raise ConfigurationError(f"factor size {size} does not divide feature dim {feature_dim}")
        slices += [(tile * size + 1, (tile + 1) * size) for tile in range(feature_dim // size)]
    half = len(slices) // 2
    return MixedSpace(tuple(
        FactorSpec(pool_index=i, slice_start=start, slice_end=end,
                   curvature=-1.0 if i < half else 1.0)
        for i, (start, end) in enumerate(slices)))


def classifier_warmup(pool: MixedSpace, feats: np.ndarray, labels: np.ndarray,
                      classifier: np.ndarray, lr: float, batch_size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """One epoch of prototype-only training under uniform factor weights.

    Backbone features are frozen; only the classifier rows move. Keeps the
    newly appended (randomly initialized) class rows from corrupting the
    weight search that follows.
    """
    uniform = np.full(pool.size, 1.0 / pool.size)
    w = classifier.copy()
    for batch in batches(len(labels), batch_size, rng):
        wt = Tensor(w)
        loss = mdl.ce_loss_t(feats[batch], wt, labels[batch], pool, weights=uniform)
        loss.backward()
        w = w - lr * wt.grad
    return w


def gis_optimize(pool: MixedSpace, feats: np.ndarray, labels: np.ndarray,
                 classifier: np.ndarray, n_classes: int, epochs: int, lr: float,
                 batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, MixedSpace]:
    """Gradient descent on the weight-sum classification loss.

    Only the selection weights and curvature magnitudes move; backbone
    features and classifier are frozen for the whole phase. Weights start
    at 1/n (n = total classes); magnitudes start from the pool's factors.
    Returns the weights and the pool with the new curvatures; the input
    pool is left as it was.

    A pool of one zero-curvature factor returns at once, with weight 1 (the
    uniform 1/P the warm-up trains under) and the pool as given, and draws
    nothing from ``rng``. Searching it could change no run: a flat factor's
    magnitude never moves, and ``select`` keeps the only factor at step 1
    whatever its weight, after which ``selected`` holds it for good.
    """
    if pool.size == 1 and pool.factors[0].curvature == 0.0:
        return np.ones(1), pool
    weights = np.full(pool.size, 1.0 / n_classes)
    curvatures = np.array([f.curvature for f in pool.factors])
    signs, mags = np.sign(curvatures), np.abs(curvatures)
    # The kernel reads magnitudes from ``kt``; the pool gives slices and signs.
    for _ in range(epochs):
        for batch in batches(len(labels), batch_size, rng):
            wt = Tensor(weights)
            kt = Tensor(mags)
            loss = mdl.ce_loss_t(feats[batch], classifier, labels[batch], pool, kmag=kt,
                                 weights=wt)
            if not np.isfinite(loss.value):
                raise NumericalDomainError("weight-sum loss diverged (NaN/Inf)")
            loss.backward()
            weights = np.maximum(weights - lr * wt.grad, 0.0)
            mags = np.where(signs != 0, np.maximum(mags - lr * kt.grad, CURVATURE_FLOOR), mags)
    return weights, MixedSpace(tuple(replace(f, curvature=float(s * m))
                                     for f, s, m in zip(pool.factors, signs, mags)))


def select(weights: np.ndarray, tau1: float, step: int) -> frozenset:
    """Factors whose weight strictly exceeds the threshold.

    At the first step an empty selection would leave no space to classify
    in, so the single highest-weight factor is taken instead.
    """
    chosen = frozenset(int(i) for i in np.nonzero(weights > tau1)[0])
    if not chosen and step == 1:
        chosen = frozenset({int(np.argmax(weights))})
    return chosen


def expand(selected: frozenset, pool: MixedSpace) -> MixedSpace:
    """Product over the selected pool indices, with live pool curvatures."""
    return MixedSpace(tuple(pool.factors[i] for i in sorted(selected)))


def trace_record(step: int, pool: MixedSpace, weights: np.ndarray,
                 chosen: frozenset, selected: frozenset) -> dict:
    """JSON-serializable per-step search trace (``selected``: the union so far)."""
    return {
        "step": step,
        "weights": weights.tolist(),
        "curvatures": [f.curvature for f in pool.factors],
        "selected": sorted(int(i) for i in chosen),
        "space_size": len(selected),
    }


def batches(n: int, batch_size: int, rng: np.random.Generator):
    """Index batches of one epoch over ``n`` rows, in a random order."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
