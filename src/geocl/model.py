"""Backbone, distance-softmax classifier, and the training losses.

The backbone is a two-layer perceptron (affine, tanh, affine) whose output
is sliced into the factors of the current mixed space. Classification is a
softmax over negated squared product distances to per-class prototype rows.

A ``*_t`` function given a Tensor input adds one autodiff node with a
hand-written backward, on top of the distance op's node where it measures
(the CE negates the distances inside its own node); given plain arrays
only it returns a plain array and makes no Tensor. A ``*_np``
function is plain NumPy, for evaluation (by nearest prototype) and the
frozen previous-step model. The tangent cosines have one helper, which the
angular loss and :func:`cosine_matrix_np` share. Every distance comes from
the one op of the product-distance kernel,
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
    """Backbone features tanh(x w1 + b1) w2 + b2, one node over the params
    that are Tensors; plain params give a plain array. The backward forms
    the gradient of no plain param, and that of the hidden layer only when
    ``w1`` or ``b1`` trains."""
    x = np.atleast_2d(x)
    w1, b1, w2, b2 = (params[k] for k in ("w1", "b1", "w2", "b2"))
    h = np.tanh(x @ ad._value(w1) + ad._value(b1))
    w2v = ad._value(w2)

    def bwd(g):
        if isinstance(b2, Tensor):
            ad._accum(b2, g)
        if isinstance(w2, Tensor):
            ad._accum(w2, h.T @ g)
        if isinstance(w1, Tensor) or isinstance(b1, Tensor):
            gz = (g @ w2v.T) * (1.0 - h * h)
            if isinstance(b1, Tensor):
                ad._accum(b1, gz)
            if isinstance(w1, Tensor):
                ad._accum(w1, x.T @ gz)

    return ad._make(h @ w2v + ad._value(b2), (w1, b1, w2, b2), bwd)


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
    """Softmax cross-entropy of the rows of ``feats`` against the prototype
    rows ``protos``, the logits being the negated squared product distances:
    two nodes, the distance op's and the CE's, which negates the distances
    in its forward and the logit gradient in its backward. ``kmag`` and
    ``weights`` are as for :func:`sq_dist_matrix_t`; a label must name a
    prototype row."""
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= protos.shape[0]:
        raise ContractViolation("label outside the seen classes")
    sq_dists = sq_dist_matrix_t(feats, protos, space, kmag=kmag, weights=weights)
    return ad.cross_entropy(sq_dists, labels)


# -- structure preservation ---------------------------------------------

def tangent_concat_np(feats: np.ndarray, space: MixedSpace) -> np.ndarray:
    """Concatenated origin-tangent coordinates of the lifted representation.

    Inside the injectivity radius log0(exp0(v)) is exactly v, so the
    tangent is the concatenation of the factor slices of the raw feature,
    one gather of the space's columns; computing it this way keeps the
    result exactly curvature-free.
    """
    feats = np.atleast_2d(feats)
    space.check_width(feats.shape[-1])
    return np.take(feats, space.columns, axis=1)


def _cosines(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-pairs cosines of the rows of a 2-D tangent batch, its unit rows
    and its (rows, 1) zero-safe norms; a zero row gets cosine 0 with every
    row. The squares are summed in C order, so the result does not depend
    on the memory order of ``q``."""
    norm = np.sqrt(np.asarray(q * q, order="C").sum(axis=-1, keepdims=True) + 1e-30)
    unit = q / norm
    return unit @ unit.T, unit, norm


def cosine_matrix_np(tangents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs cosine matrix plus a validity mask (nonzero-norm rows)."""
    cos, _, norm = _cosines(tangents)
    ok = norm[:, 0] > geometry.ZERO_TOL
    return cos, np.outer(ok, ok)


def angular_reg_loss_t(cur_feats, cur_space: MixedSpace, prev_cos: np.ndarray,
                       valid: np.ndarray):
    """Huber penalty on changes of pairwise origin-tangent cosines, one node
    over ``cur_feats``.

    ``prev_cos``/``valid`` come from the frozen previous-step model; pairs
    with a degenerate tangent on either side are skipped via the mask. The
    Huber branch is at a cosine change of 1: quadratic inside, linear
    outside. The backward runs the float ops of the gather, norm, cosine,
    Huber and masked-mean chain it stands for, in their order.
    """
    q = tangent_concat_np(ad._value(cur_feats), cur_space)
    cos, unit, norm = _cosines(q)
    ok = norm[:, 0] > geometry.ZERO_TOL
    b = q.shape[0]
    mask = np.triu(np.ones((b, b)), k=1) * valid * np.outer(ok, ok)
    diff = cos - prev_cos
    absd = np.abs(diff)
    inside = absd <= 1.0
    per_pair = np.where(inside, 0.5 * diff * diff, absd - 0.5)
    # Averaged over pairs so the batch-pair count does not set the scale.
    scale = 1.0 / max(mask.sum(), 1.0)

    def bwd(g):
        g_cos = g * scale * mask * np.where(inside, diff, np.sign(diff))
        g_unit = g_cos @ unit + (unit.T @ g_cos).T
        g_norm = (-g_unit * q / (norm * norm)).sum(axis=-1, keepdims=True)
        g_q = g_unit / norm + 2.0 * (g_norm / (2.0 * norm)) * q
        g_feats = np.zeros_like(cur_feats.value)
        ad.add_cols(g_feats, ad.col_runs(cur_space.columns), g_q)
        ad._accum(cur_feats, g_feats)

    return ad._make(np.asarray(per_pair * mask, order="C").sum() * scale, (cur_feats,), bwd)


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
    is averaged over all b(b-1)/2 pairs of the batch, in one node over the
    distances.
    """
    b = cur_feats.shape[0]
    weight = np.triu(np.ones((b, b)), k=1) * affinity
    psi2 = diffgeo.sq_dist_matrix(cur_feats, cur_feats, cur_space, kmag=kmag,
                                  pairs=weight != 0)
    d2 = ad._value(psi2)
    if repulsion_cap is not None:
        # Stop pushing apart pairs already separated past the cap.
        weight = np.where((weight < 0) & (d2 > repulsion_cap), 0.0, weight)
    scale = 1.0 / max(b * (b - 1) / 2.0, 1.0)
    return ad._make(np.asarray(d2 * weight, order="C").sum() * scale, (psi2,),
                    lambda g: ad._accum(psi2, g * scale * weight))


def total_loss_t(ce, lam1: float, global_term, lam2: float, local_term):
    """ce + lam1 * global_term + lam2 * local_term, one node; a term given as
    None is left out."""
    value = ad._value(ce)
    if global_term is not None:
        value = value + lam1 * ad._value(global_term)
    if local_term is not None:
        value = value + lam2 * ad._value(local_term)

    def bwd(g):
        for term, lam in ((ce, 1.0), (global_term, lam1), (local_term, lam2)):
            if isinstance(term, Tensor):
                ad._accum(term, g * lam)

    return ad._make(value, (ce, global_term, local_term), bwd)
