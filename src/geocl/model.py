"""Backbone, distance-softmax classifier, and the training losses.

The backbone is a two-layer perceptron (affine, tanh, affine) whose output
is sliced into the factors of the current mixed space. Classification is a
softmax over negated squared product distances to per-class prototype rows.

A ``*_t`` function records its ops for autodiff when an input is a Tensor,
and given plain arrays only returns a plain array and makes no Tensor; a
``*_np`` function is such a call on plain arrays, for evaluation (by
nearest prototype) and the frozen previous-step model. All of them measure
with the one op of the product-distance kernel,
:func:`geocl.diffgeo.sq_dist_matrix`, and the neighbor loss measures only
the pairs it weights, the within- and between-class neighbors, through its
``pairs`` mask. The previous-step model's distances also come from that
op with a mask, forward only, on the tiles that hold a listed pair: a step
draws main training's batches and buffer rows before it measures that
model, so only the same-class pairs and the pairs within a batch's rows
are measured (see ``harness._structure_context``).
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
    return features_t(params, x)


def features_t(params: dict[str, Tensor | np.ndarray], x: np.ndarray):
    """Backbone features; ``params`` are Tensors to train, or plain arrays,
    which give a plain array."""
    h = ad.tanh(ad.matmul(np.atleast_2d(x), params["w1"]) + params["b1"])
    return ad.matmul(h, params["w2"]) + params["b2"]


# -- distance logits ----------------------------------------------------

def sq_dist_matrix_np(feats: np.ndarray, protos: np.ndarray, space: MixedSpace) -> np.ndarray:
    """(batch, n_proto) matrix of squared product distances."""
    return diffgeo.sq_dist_matrix(np.atleast_2d(feats), np.atleast_2d(protos), space)


def sq_dist_matrix_t(feats, protos, space: MixedSpace, kmag=None, weights=None):
    """:func:`sq_dist_matrix_np` recorded for autodiff; see
    :func:`diffgeo.sq_dist_matrix`. Each input is a Tensor or a plain array.

    ``kmag`` optionally supplies trainable curvature magnitudes indexed by
    pool index; ``weights`` optionally supplies per-factor selection
    weights (same indexing) for the weight-sum loss.
    """
    return diffgeo.sq_dist_matrix(feats, protos, space, kmag=kmag, weights=weights)


def ce_loss_t(feats, protos, labels: np.ndarray, space: MixedSpace, kmag=None,
              weights=None):
    labels = np.asarray(labels)
    if labels.max(initial=-1) >= protos.shape[0]:
        raise ContractViolation("label outside the seen classes")
    logits = -sq_dist_matrix_t(feats, protos, space, kmag=kmag, weights=weights)
    return ad.cross_entropy(logits, labels)


# -- structure preservation ---------------------------------------------

def tangent_concat_t(feats, space: MixedSpace):
    """Concatenated origin-tangent coordinates of the lifted representation.

    Inside the injectivity radius log0(exp0(v)) is exactly v, so the
    tangent is the concatenation of the factor slices of the raw feature,
    one gather of the space's columns; computing it this way keeps the
    result exactly curvature-free.
    """
    space.check_width(np.shape(feats)[-1])
    return ad.take_cols(feats, space.columns)


def tangent_concat_np(feats: np.ndarray, space: MixedSpace) -> np.ndarray:
    return tangent_concat_t(np.atleast_2d(feats), space)


def _tangent_cosines(q) -> tuple:
    """All-pairs cosines of the rows of a 2-D tangent batch, and which rows
    have a nonzero norm (a zero row gets cosine 0 with every row)."""
    n = ad.norm(q)
    unit = q / n
    return ad.matmul(unit, ad.transpose2d(unit)), ad._value(n)[:, 0] > geometry.ZERO_TOL


def cosine_matrix_np(tangents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs cosine matrix plus a validity mask (nonzero-norm rows)."""
    cos, ok = _tangent_cosines(tangents)
    return cos, np.outer(ok, ok)


def angular_reg_loss_t(cur_feats, cur_space: MixedSpace, prev_cos: np.ndarray,
                       valid: np.ndarray):
    """Huber penalty on changes of pairwise origin-tangent cosines.

    ``prev_cos``/``valid`` come from the frozen previous-step model; pairs
    with a degenerate tangent on either side are skipped via the mask.
    """
    q = tangent_concat_t(cur_feats, cur_space)
    cos_cur, cur_ok = _tangent_cosines(q)
    b = q.shape[0]
    mask = np.triu(np.ones((b, b)), k=1) * valid * np.outer(cur_ok, cur_ok)
    per_pair = ad.huber(cos_cur, prev_cos)
    # Averaged over pairs so the batch-pair count does not set the scale.
    return ad.sum_(per_pair * mask) * (1.0 / max(mask.sum(), 1.0))


def affinity_matrix(sq_dists: np.ndarray, labels: np.ndarray, tau2: float) -> np.ndarray:
    """Pairwise affinity as int8 from previous-step squared distances: +1
    within-class neighbors, -1 between-class neighbors, else 0. Two distinct
    rows are neighbors when their squared distance is below ``tau2``.

    The neighbor relation is symmetrized ("either direction"), which makes
    the masks symmetric already since the distance matrix is. The result is
    the difference of the two masks read as 0/1 bytes, exact and an eighth
    the size of a float matrix; the losses take a float block of it.
    """
    labels = np.asarray(labels)
    close = sq_dists < tau2
    np.fill_diagonal(close, False)
    same = labels[:, None] == labels[None, :]
    within, between = close & same, close & ~same
    return (within | within.T).view(np.int8) - (between | between.T).view(np.int8)


def tau2_same_class_mean(sq_dists: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared previous-step distance over distinct same-class pairs."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    if not same.any():
        return 0.0
    return float(sq_dists[same].mean())


def neighbor_robustness_loss_t(cur_feats, cur_space: MixedSpace, affinity: np.ndarray,
                               kmag=None, repulsion_cap: float | None = None):
    """Signed sum of current pairwise squared distances, weighted by affinity.

    Only the pairs i < j with a nonzero affinity (the within- and
    between-class neighbors) are measured, through the ``pairs`` mask of
    :func:`diffgeo.sq_dist_matrix`; every other pair has weight 0. The sum
    is averaged over all b(b-1)/2 pairs of the batch.
    """
    b = cur_feats.shape[0]
    weight = np.triu(np.ones((b, b)), k=1) * affinity
    psi2 = diffgeo.sq_dist_matrix(cur_feats, cur_feats, cur_space, kmag=kmag,
                                  pairs=weight != 0)
    if repulsion_cap is not None:
        # Stop pushing apart pairs already separated past the cap.
        capped = (weight < 0) & (ad._value(psi2) > repulsion_cap)
        weight = np.where(capped, 0.0, weight)
    n_pairs = b * (b - 1) / 2.0
    return ad.sum_(psi2 * weight) * (1.0 / max(n_pairs, 1.0))


def total_loss_t(ce: Tensor, lam1: float, global_term: Tensor | None,
                 lam2: float, local_term: Tensor | None) -> Tensor:
    loss = ce
    if global_term is not None:
        loss = loss + lam1 * global_term
    if local_term is not None:
        loss = loss + lam2 * local_term
    return loss

