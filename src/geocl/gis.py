"""Geometry incremental search: submanifold pool (its factors hold the live
curvatures), weight-sum selection, thresholded factor choice, space expansion."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl
from .autodiff import Tensor
from .errors import ConfigurationError, NumericalDomainError
from .geometry import CURVATURE_FLOOR
from .product import FactorSpec, MixedSpace


@dataclass
class SubmanifoldPool:
    """Fixed set of candidate factors; slices and curvature signs never change.

    Each factor holds its live curvature, which the search writes back;
    selection weights live only inside each step's search phase.
    """

    factors: tuple[FactorSpec, ...]

    @property
    def size(self) -> int:
        return len(self.factors)


def build_pool(feature_dim: int, sizes, mode: str = "mixed") -> SubmanifoldPool:
    """Tile the feature coordinates with contiguous slices of each size.

    ``mixed`` assigns curvature -1 to the first half of the pool and +1 to
    the rest; ``euclidean`` builds a single zero-curvature factor covering
    every coordinate (the non-trainable Euclidean-limit baseline).
    """
    if mode == "euclidean":
        f = FactorSpec(pool_index=0, slice_start=1, slice_end=feature_dim, curvature=0.0)
        return SubmanifoldPool(factors=(f,))
    if mode != "mixed":
        raise ConfigurationError(f"unknown pool mode '{mode}'")
    slices = []
    for size in sizes:
        if feature_dim % size != 0:
            raise ConfigurationError(f"factor size {size} does not divide feature dim {feature_dim}")
        slices += [(tile * size + 1, (tile + 1) * size) for tile in range(feature_dim // size)]
    half = len(slices) // 2
    return SubmanifoldPool(factors=tuple(
        FactorSpec(pool_index=i, slice_start=start, slice_end=end,
                   curvature=-1.0 if i < half else 1.0)
        for i, (start, end) in enumerate(slices)))


def classifier_warmup(pool: SubmanifoldPool, feats: np.ndarray, labels: np.ndarray,
                      classifier: np.ndarray, lr: float, batch_size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """One epoch of prototype-only training under uniform factor weights.

    Backbone features are frozen; only the classifier rows move. Keeps the
    newly appended (randomly initialized) class rows from corrupting the
    weight search that follows.
    """
    space = MixedSpace(pool.factors)
    uniform = np.full(pool.size, 1.0 / pool.size)
    w = classifier.copy()
    for batch in batches(len(labels), batch_size, rng):
        wt = Tensor(w, requires_grad=True)
        loss = mdl.ce_loss_t(Tensor(feats[batch]), wt, labels[batch], space,
                             weights=Tensor(uniform))
        loss.backward()
        w = w - lr * wt.grad
    return w


def gis_optimize(pool: SubmanifoldPool, feats: np.ndarray, labels: np.ndarray,
                 classifier: np.ndarray, n_classes: int, epochs: int, lr: float,
                 batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Gradient descent on the weight-sum classification loss.

    Only the selection weights and curvature magnitudes move; backbone
    features and classifier are frozen for the whole phase. Weights start
    at 1/n (n = total classes); magnitudes start from the pool's factors.
    Writes the new curvatures back into the pool's factors and returns the
    weights.
    """
    weights = np.full(pool.size, 1.0 / n_classes)
    curvatures = np.array([f.curvature for f in pool.factors])
    signs, mags = np.sign(curvatures), np.abs(curvatures)
    # The kernel reads magnitudes from ``kt``; the space gives slices and signs.
    space = MixedSpace(pool.factors)
    for _ in range(epochs):
        for batch in batches(len(labels), batch_size, rng):
            wt = Tensor(weights, requires_grad=True)
            kt = Tensor(mags, requires_grad=True)
            loss = mdl.ce_loss_t(Tensor(feats[batch]), Tensor(classifier),
                                 labels[batch], space, kmag=kt, weights=wt)
            if not np.isfinite(loss.value):
                raise NumericalDomainError("weight-sum loss diverged (NaN/Inf)")
            loss.backward()
            weights = np.maximum(weights - lr * wt.grad, 0.0)
            if kt.grad is not None:
                mags = np.where(signs != 0,
                                np.maximum(mags - lr * kt.grad, CURVATURE_FLOOR), mags)
    pool.factors = tuple(replace(f, curvature=float(s * m))
                         for f, s, m in zip(pool.factors, signs, mags))
    return weights


def select(weights: np.ndarray, tau1: float, step: int) -> frozenset:
    """Factors whose weight strictly exceeds the threshold.

    At the first step an empty selection would leave no space to classify
    in, so the single highest-weight factor is taken instead.
    """
    chosen = frozenset(int(i) for i in np.nonzero(weights > tau1)[0])
    if not chosen and step == 1:
        chosen = frozenset({int(np.argmax(weights))})
    return chosen


def expand(selected: frozenset, pool: SubmanifoldPool) -> MixedSpace:
    """Product over the selected pool indices, with live pool curvatures."""
    return MixedSpace(tuple(pool.factors[i] for i in sorted(selected)))


def trace_record(step: int, pool: SubmanifoldPool, weights: np.ndarray,
                 chosen: frozenset, selected: frozenset) -> dict:
    """JSON-serializable per-step search trace (``selected``: the union so far)."""
    return {
        "step": step,
        "weights": weights.tolist(),
        "curvatures": [f.curvature for f in pool.factors],
        "selected": sorted(int(i) for i in chosen),
        "space_size": len(selected),
    }


def batch_count(n: int, batch_size: int) -> int:
    """Number of batches :func:`batches` yields per epoch over ``n`` rows."""
    return len(range(0, n, batch_size))


def batches(n: int, batch_size: int, rng: np.random.Generator):
    """Index batches of one epoch over ``n`` rows, in a random order."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
