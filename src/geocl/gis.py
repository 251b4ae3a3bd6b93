"""Geometry incremental search: submanifold pool, weight-sum selection,
thresholded choice of factors, and product-space expansion."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .autodiff import Tensor
from .errors import ConfigurationError, NumericalDomainError
from .geometry import CURVATURE_FLOOR
from .product import FactorSpec, MixedSpace


@dataclass
class SubmanifoldPool:
    """Fixed set of candidate factors; slices and signs never change.

    Curvature magnitudes persist across steps; selection weights live only
    inside each step's search phase.
    """

    factors: tuple[FactorSpec, ...]
    signs: np.ndarray          # per factor: -1, 0, or +1, immutable
    magnitudes: np.ndarray     # per factor: |K|, trainable where sign != 0

    @property
    def size(self) -> int:
        return len(self.factors)

    def factor_with_current_curvature(self, pool_index: int) -> FactorSpec:
        return replace(self.factors[pool_index],
                       curvature=float(self.signs[pool_index] * self.magnitudes[pool_index]))

    def full_space(self) -> MixedSpace:
        return MixedSpace(tuple(self.factor_with_current_curvature(i) for i in range(self.size)))


def build_pool(feature_dim: int, sizes, mode: str = "mixed") -> SubmanifoldPool:
    """Tile the feature coordinates with contiguous slices of each size.

    ``mixed`` assigns curvature -1 to the first half of the pool and +1 to
    the rest; ``euclidean`` builds a single zero-curvature factor covering
    every coordinate (the non-trainable Euclidean-limit baseline).
    """
    if mode == "euclidean":
        f = FactorSpec(pool_index=0, slice_start=1, slice_end=feature_dim, curvature=0.0)
        return SubmanifoldPool(factors=(f,), signs=np.zeros(1), magnitudes=np.zeros(1))
    if mode != "mixed":
        raise ConfigurationError(f"unknown pool mode '{mode}'")
    factors = []
    idx = 0
    for size in sizes:
        if feature_dim % size != 0:
            raise ConfigurationError(f"factor size {size} does not divide feature dim {feature_dim}")
        for tile in range(feature_dim // size):
            factors.append(
                FactorSpec(pool_index=idx, slice_start=tile * size + 1,
                           slice_end=(tile + 1) * size, curvature=-1.0)
            )
            idx += 1
    xi = len(factors)
    signs = np.where(np.arange(xi) < xi // 2, -1.0, 1.0)
    factors = tuple(replace(f, curvature=float(signs[f.pool_index])) for f in factors)
    return SubmanifoldPool(factors=factors, signs=signs, magnitudes=np.ones(xi))


def classifier_warmup(pool: SubmanifoldPool, feats: np.ndarray, labels: np.ndarray,
                      classifier: np.ndarray, lr: float, batch_size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """One epoch of prototype-only training under uniform factor weights.

    Backbone features are frozen; only the classifier rows move. Keeps the
    newly appended (randomly initialized) class rows from corrupting the
    weight search that follows.
    """
    space = pool.full_space()
    uniform = np.full(pool.size, 1.0 / pool.size)
    w = classifier.copy()
    for batch in _batches(len(labels), batch_size, rng):
        wt = Tensor(w, requires_grad=True)
        loss = mdl.ce_loss_t(Tensor(feats[batch]), wt, labels[batch], space,
                             weights=Tensor(uniform))
        loss.backward()
        w = w - lr * wt.grad
    return w


def gis_optimize(pool: SubmanifoldPool, feats: np.ndarray, labels: np.ndarray,
                 classifier: np.ndarray, n_classes: int, epochs: int, lr: float,
                 batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Gradient descent on the weight-sum classification loss.

    Only the selection weights and curvature magnitudes move; backbone
    features and classifier are frozen for the whole phase. Weights start
    at 1/n (n = total classes); magnitudes start from the previous step's
    pool state. Updates the pool in place and returns (weights, magnitudes).
    """
    weights = np.full(pool.size, 1.0 / n_classes)
    mags = pool.magnitudes.copy()
    trainable_k = pool.signs != 0
    # The kernel reads magnitudes from ``kt``; the space gives slices and signs.
    space = pool.full_space()
    for _ in range(epochs):
        for batch in _batches(len(labels), batch_size, rng):
            wt = Tensor(weights, requires_grad=True)
            kt = Tensor(mags, requires_grad=True)
            loss = mdl.ce_loss_t(Tensor(feats[batch]), Tensor(classifier),
                                 labels[batch], space, kmag=kt, weights=wt)
            if not np.isfinite(loss.value):
                raise NumericalDomainError("weight-sum loss diverged (NaN/Inf)")
            loss.backward()
            weights = np.maximum(weights - lr * wt.grad, 0.0)
            if kt.grad is not None:
                mags = np.where(trainable_k,
                                np.maximum(mags - lr * kt.grad, CURVATURE_FLOOR), mags)
    pool.magnitudes = mags
    return weights, mags


def select(pool: SubmanifoldPool, weights: np.ndarray, tau1: float, step: int) -> frozenset:
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
    return MixedSpace(tuple(pool.factor_with_current_curvature(i) for i in sorted(selected)))


def trace_record(step: int, pool: SubmanifoldPool, weights: np.ndarray,
                 chosen: frozenset, selected: frozenset) -> dict:
    """JSON-serializable per-step search trace (``selected``: the union so far)."""
    return {
        "step": step,
        "weights": weights.tolist(),
        "curvatures": (pool.signs * pool.magnitudes).tolist(),
        "selected": sorted(int(i) for i in chosen),
        "space_size": len(selected),
    }


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
