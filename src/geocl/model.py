"""Backbone, distance-softmax classifier, and the training losses.

The backbone is a two-layer perceptron (affine, tanh, affine) whose output
is sliced into the factors of the current mixed space. Classification is a
softmax over negated squared product distances to per-class prototype rows.

Training, evaluation and the frozen previous-step model all measure with
the one product-distance kernel in :mod:`geocl.diffgeo`: ``sq_dist_matrix_t``
records it for autodiff, ``sq_dist_matrix_np`` takes its forward value
only, and the neighbor loss measures only the pairs it weights, the
within- and between-class neighbors, with ``diffgeo.pair_sq_dist``. The
previous-step model's distances also come from ``diffgeo.pair_sq_dist``,
forward only: a step draws main training's buffer rows before it measures
that model, so only the same-class pairs and the pairs within a batch's
rows are measured (see ``harness._structure_context``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeo, geometry
from .autodiff import Tensor
from .errors import ContractViolation
from .product import MixedSpace


@dataclass(frozen=True)
class Backbone:
    """Two-layer perceptron: input -> hidden (tanh) -> feature."""

    in_dim: int
    hidden_dim: int
    feature_dim: int

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        w1 = rng.normal(0.0, 1.0 / np.sqrt(self.in_dim), (self.in_dim, self.hidden_dim))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(self.hidden_dim), (self.hidden_dim, self.feature_dim))
        return {
            "w1": w1,
            "b1": np.zeros(self.hidden_dim),
            "w2": w2,
            "b2": np.zeros(self.feature_dim),
        }


def features_np(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Backbone features as an array: the value of :func:`features_t`."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params["w1"].shape[0]:
        raise ContractViolation(
            f"input dim {x.shape[1]} != backbone dim {params['w1'].shape[0]}"
        )
    return features_t({k: Tensor(v) for k, v in params.items()}, x).value


def features_t(params: dict[str, Tensor], x: np.ndarray) -> Tensor:
    h = ad.tanh(ad.matmul(Tensor(np.atleast_2d(x)), params["w1"]) + params["b1"])
    return ad.matmul(h, params["w2"]) + params["b2"]


# -- distance logits ----------------------------------------------------

def sq_dist_matrix_np(feats: np.ndarray, protos: np.ndarray, space: MixedSpace,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """(batch, n_proto) matrix of (optionally weighted) squared product distances."""
    return diffgeo.sq_dist_matrix(np.atleast_2d(feats), np.atleast_2d(protos), space,
                                  weights=weights).value


def class_probs_np(feats: np.ndarray, protos: np.ndarray, space: MixedSpace) -> np.ndarray:
    """Softmax over negated squared product distances to the class prototypes."""
    if protos.shape[0] == 0:
        raise ContractViolation("no class prototypes")
    logits = -sq_dist_matrix_np(feats, protos, space)
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


def sq_dist_matrix_t(feats: Tensor, protos: Tensor, space: MixedSpace,
                     kmag: Tensor | None = None,
                     weights: Tensor | None = None) -> Tensor:
    """Differentiable :func:`sq_dist_matrix_np`; see :func:`diffgeo.sq_dist_matrix`.

    ``kmag`` optionally supplies trainable curvature magnitudes indexed by
    pool index; ``weights`` optionally supplies per-factor selection
    weights (same indexing) for the weight-sum loss.
    """
    return diffgeo.sq_dist_matrix(feats, protos, space, kmag=kmag, weights=weights)


def ce_loss_t(feats: Tensor, protos: Tensor, labels: np.ndarray, space: MixedSpace,
              kmag: Tensor | None = None, weights: Tensor | None = None) -> Tensor:
    labels = np.asarray(labels)
    if labels.max(initial=-1) >= protos.shape[0]:
        raise ContractViolation("label outside the seen classes")
    logits = -sq_dist_matrix_t(feats, protos, space, kmag=kmag, weights=weights)
    return ad.cross_entropy(logits, labels)


# -- structure preservation ---------------------------------------------

def tangent_concat_t(feats: Tensor, space: MixedSpace) -> Tensor:
    """Concatenated origin-tangent coordinates of the lifted representation.

    Inside the injectivity radius log0(exp0(v)) is exactly v, so the
    tangent is the concatenation of the factor slices of the raw feature;
    computing it this way keeps the result exactly curvature-free.
    """
    return ad.concat([ad.cols(feats, f.slice_start - 1, f.slice_end) for f in space.factors])


def tangent_concat_np(feats: np.ndarray, space: MixedSpace) -> np.ndarray:
    return tangent_concat_t(Tensor(np.atleast_2d(feats)), space).value


def _tangent_cosines(q: Tensor) -> tuple[Tensor, np.ndarray]:
    """All-pairs cosines of the rows of a 2-D tangent batch, and which rows
    have a nonzero norm (a zero row gets cosine 0 with every row)."""
    n = ad.norm(q)
    unit = q / n
    return ad.matmul(unit, ad.transpose2d(unit)), n.value[:, 0] > geometry.ZERO_TOL


def cosine_matrix_np(tangents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs cosine matrix plus a validity mask (nonzero-norm rows)."""
    cos, ok = _tangent_cosines(Tensor(tangents))
    return cos.value, np.outer(ok, ok)


def angular_reg_loss_t(cur_feats: Tensor, cur_space: MixedSpace,
                       prev_cos: np.ndarray, valid: np.ndarray) -> Tensor:
    """Huber penalty on changes of pairwise origin-tangent cosines.

    ``prev_cos``/``valid`` come from the frozen previous-step model; pairs
    with a degenerate tangent on either side are skipped via the mask.
    """
    q = tangent_concat_t(cur_feats, cur_space)
    cos_cur, cur_ok = _tangent_cosines(q)
    b = q.shape[0]
    mask = np.triu(np.ones((b, b)), k=1) * valid * np.outer(cur_ok, cur_ok)
    per_pair = ad.huber(cos_cur, Tensor(prev_cos))
    # Averaged over pairs so the batch-pair count does not set the scale.
    return ad.sum_(per_pair * Tensor(mask)) * (1.0 / max(mask.sum(), 1.0))


def neighbor_sets(sq_dists: np.ndarray, labels: np.ndarray, tau2: float):
    """Within/between neighbor masks from previous-step squared distances."""
    labels = np.asarray(labels)
    close = sq_dists < tau2
    np.fill_diagonal(close, False)
    same = labels[:, None] == labels[None, :]
    return close & same, close & ~same


def affinity_matrix(sq_dists: np.ndarray, labels: np.ndarray, tau2: float) -> np.ndarray:
    """Pairwise affinity: +1 within-class neighbors, -1 between-class, else 0.

    The neighbor relation is symmetrized ("either direction"), which makes
    the masks symmetric already since the distance matrix is.
    """
    within, between = neighbor_sets(sq_dists, labels, tau2)
    w = (within | within.T).astype(float)
    b = (between | between.T).astype(float)
    return w - b


def tau2_same_class_mean(sq_dists: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared previous-step distance over distinct same-class pairs."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    if not same.any():
        return 0.0
    return float(sq_dists[same].mean())


def neighbor_robustness_loss_t(cur_feats: Tensor, cur_space: MixedSpace,
                               affinity: np.ndarray, kmag: Tensor | None = None,
                               repulsion_cap: float | None = None) -> Tensor:
    """Signed sum of current pairwise squared distances, weighted by affinity.

    Only the pairs i < j with a nonzero affinity (the within- and
    between-class neighbors) are measured, by :func:`diffgeo.pair_sq_dist`;
    every other pair has weight 0. The sum is averaged over all b(b-1)/2
    pairs of the batch.
    """
    b = cur_feats.shape[0]
    weight = np.triu(np.ones((b, b)), k=1) * affinity
    psi2 = diffgeo.pair_sq_dist(cur_feats, weight != 0, cur_space, kmag=kmag)
    if repulsion_cap is not None:
        # Stop pushing apart pairs already separated past the cap.
        capped = (weight < 0) & (psi2.value > repulsion_cap)
        weight = np.where(capped, 0.0, weight)
    n_pairs = b * (b - 1) / 2.0
    return ad.sum_(psi2 * Tensor(weight)) * (1.0 / max(n_pairs, 1.0))


def total_loss_t(ce: Tensor, lam1: float, global_term: Tensor | None,
                 lam2: float, local_term: Tensor | None) -> Tensor:
    loss = ce
    if global_term is not None:
        loss = loss + lam1 * global_term
    if local_term is not None:
        loss = loss + lam2 * local_term
    return loss

