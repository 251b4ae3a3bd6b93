"""The product-distance kernel: squared product-geodesic distances over every
factor of a space, with a hand-written backward.

The squared product distance between the lifts of two feature rows is the
sum over the factors of a ``MixedSpace`` of the per-factor squared
distances, optionally weighted per factor. A factor lifts its raw slice u
by the exponential map at the origin and measures the gyro-distance there.
In the kappa-stereographic model the lift only rescales each row, so the
distance needs only the Gram entry <x,y> and the norms |x|^2, |y|^2 of the
lifts:

    lift      x = a(|u|) u,  a(r) = tan_K(min(sqrt|K| r, cap)) / (sqrt|K| r)
    gyro      |(-x) (+)_K y|^2 = (|x|^2 + |y|^2 - 2<x,y>)
                                 / (1 + 2K<x,y> + K^2 |x|^2 |y|^2)
    distance  d = (2 / sqrt|K|) arctan_K(sqrt|K| |(-x) (+)_K y|)

A zero-curvature factor gives 4 |u - v|^2. The cap keeps spherical lifts
inside the injectivity radius (``geometry.TAN_CAP``) and hyperbolic lifts
inside the ball margin. Factors are evaluated in groups of equal slice width
and curvature sign, one batched Gram product per group.

Three pieces make up the kernel: ``_lift``; one elementwise core over
broadcastable (Gram, |x|^2, |y|^2) arrays with its elementwise backward; and
one reduction of the core's backward terms in the (m, B, N) layout of a
group's m factors, which ends in the Gram-backward products and the lift
backward. One routine, ``_measure``, runs them in the kernel's one walk: it
lifts every group once, then per tile each group takes one Gram product and
runs the core on every entry or on the listed entries only. Every op is one
call of it:

- ``sq_dist_matrix`` recording for autodiff (the classification and search
  losses) is one tile, the whole (B, N) matrix;
- ``pair_sq_dist`` recording for autodiff (the neighbor loss) is one tile
  with the listed pairs of one batch; the backward scatters the per-pair
  terms into the (m, B, B) layout before the reduction, so its gradients
  are those of the matrix form;
- either op without an input requiring gradients (evaluation, and the
  previous-step model's distances on the pairs the structure losses read)
  keeps no backward and walks tiles small enough that a group's
  intermediates stay in cache, skipping those that hold no listed pair.

Every path and tiling gives the same values bit for bit.

A recorded node decides when it is built which backward pieces run, from
which of feats (u), protos (v), kmag (k) and weights require gradients:

- dL/dw needs only the forward distances, and no group backward;
- a frozen k (main training, the warm-up, the neighbor loss) skips the
  core's three dL/dk terms, their scatter on the pair path and the lifts'
  dL/dk sums;
- an operand that is frozen while k is too (the features in the warm-up)
  skips its whole side: its core term, |x|^2 sums, Gram-backward product
  and lift backward;
- a trainable k with both operands frozen (the search) runs both sides up
  to the lifts' dL/dk, but assembles no dL/du or dL/dv;
- a Euclidean group has no curvature, so it runs as if k were frozen: in
  the search on the one-factor Euclidean pool it runs no backward at all.

The pieces that run are the same operations in the same order, so every
gradient that is read is bit for bit the one of a call where every input
requires gradients. The grouping of a space's factors is built once per
(space, feature width).

Training, evaluation and the previous-step model thus measure with one
metric; ``geometry`` stays the independent oracle.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import geometry
from .autodiff import Tensor
from .product import FactorSpec, MixedSpace

# tanh(arg) <= 1 - BALL_EPS, i.e. the lift respects the ball margin.
_BALL_ARG_CAP = float(np.arctanh(1.0 - geometry.BALL_EPS))
# Added under every square root, so a zero slice or a zero distance has a norm.
_NORM_EPS = 1e-30
# artanh arguments are clipped short of the branch point.
_ATANH_CLIP = 1.0 - 1e-15
# A forward-only walk's tiles are _TILE columns wide and as many rows tall (at
# least _TILE) as keep a tile of a narrower matrix within _TILE^2 entries, so
# that a group's (m, rows, columns) intermediates stay in cache.
_TILE = 64


@functools.lru_cache(maxsize=64)
def _layout(space: MixedSpace, width: int) -> tuple:
    """Factors grouped by (slice width, curvature sign), built once per
    (space, feature width): per group its sign, feature columns, pool
    indices and curvature magnitudes, as read-only arrays. The columns of a
    group's factors are laid out factor after factor. A factor past the
    feature width is rejected."""
    space.check_width(width)
    groups: dict[tuple[int, float], list[FactorSpec]] = {}
    for f in space.factors:
        groups.setdefault((f.dim, float(np.sign(f.curvature))), []).append(f)
    layout = []
    for (_, sign), members in groups.items():
        arrays = (np.concatenate([f.columns for f in members]),
                  np.array([f.pool_index for f in members]),
                  np.array([abs(f.curvature) for f in members]))
        for a in arrays:
            a.flags.writeable = False
        layout.append((sign, *arrays))
    return tuple(layout)


def _lift(u, k, sign):
    """Exp map at the origin of the rows of ``u`` (m, R, d), x = a u with
    a = tan_K(min(t, cap)) / t at t = sqrt(k) |u|, and the map from dL/dx to
    (dL/du, dL/dk), each None unless its flag ``want_u``/``want_k`` is set.
    The Euclidean lift is the identity."""
    if sign == 0:
        return u, lambda gx, want_u, want_k: (gx, None)
    cap = geometry.TAN_CAP if sign > 0 else _BALL_ARG_CAP
    t = np.sqrt(k)[:, None] * np.sqrt(np.einsum("mrd,mrd->mr", u, u) + _NORM_EPS)
    inside = t < cap
    tk = np.tan(np.where(inside, t, cap)) if sign > 0 else np.tanh(np.where(inside, t, cap))
    a = tk / t

    def backward(gx, want_u, want_k):
        dtk = 1.0 + tk * tk if sign > 0 else 1.0 - tk * tk
        gt = np.einsum("mrd,mrd->mr", gx, u) * (inside * dtk - a) / t
        # t = sqrt(k) sqrt(|u|^2 + eps): dt/du = k u / t, dt/dk = t / (2 k).
        gu = a[:, :, None] * gx + (gt * k[:, None] / t)[:, :, None] * u if want_u else None
        return gu, (gt * t).sum(axis=1) / (2.0 * k) if want_k else None

    return a[:, :, None] * u, backward


def _lifted(a, cols, k, sign):
    """Lift of a group's slices of the rows of ``a`` (R, D): the lift x
    (m, R, d), its squared norms (m, R) and the lift's backward."""
    u = a[:, cols].reshape(len(a), len(k), -1).transpose(1, 0, 2)
    x, backward = _lift(u, k, sign)
    return x, np.einsum("mrd,mrd->mr", x, x), backward


def _core(gram, x2, y2, k, sign):
    """Squared distances of one group, elementwise from the Gram form, and
    the elementwise backward.

    ``gram``, ``x2`` = |x|^2 and ``y2`` = |y|^2 broadcast together; axis 0
    runs over the group's factors, of curvature magnitudes ``k``. The
    backward maps dL/d(dist2) and a :class:`_Wanted` to the terms that
    :func:`_group_backward` reduces: those of dL/d|x|^2 and dL/d|y|^2 (None
    for a side that is not wanted), of dL/d<x,y>, and the three terms of
    dL/dk (none for a Euclidean group, or when the curvature is frozen).
    """
    num = x2 + y2 - 2.0 * gram
    if sign == 0:
        def euclidean_backward(gd, want):
            gnum = 4.0 * gd * (num > 0.0)
            return (gnum if want.x else None, gnum if want.y else None, -2.0 * gnum, ())

        return 4.0 * np.maximum(num, 0.0), euclidean_backward
    kk = k.reshape((-1,) + (1,) * (gram.ndim - 1))
    sk = np.sqrt(kk)
    curv = sign * kk
    x2y2 = x2 * y2
    den = 1.0 + 2.0 * curv * gram + curv * curv * x2y2
    ratio = np.maximum(num, 0.0) / den
    n = np.sqrt(ratio + _NORM_EPS)
    z = sk * n
    if sign < 0:
        # z = sqrt(k) sqrt(ratio + eps) > 0: only the upper clip can bind.
        z = np.minimum(z, _ATANH_CLIP)
        ang = np.arctanh(z)
    else:
        ang = np.arctan(z)

    def backward(gd, want):
        # dist2 = 4 ang^2 / k, ang = arctan_K(z), z = sqrt(k) n, n^2 = ratio.
        dang = 1.0 / (1.0 - z * z) if sign < 0 else 1.0 / (1.0 + z * z)
        gz = gd * (8.0 * ang / kk) * dang
        gratio = gz * (num > 0.0) * sk / (2.0 * n)
        gnum = gratio / den
        gden = -gratio * ratio / den
        return (gnum + curv * curv * gden * y2 if want.x else None,
                gnum + curv * curv * gden * x2 if want.y else None,
                2.0 * curv * gden - 2.0 * gnum,
                (gz * n, gd * ang * ang, gden * (2.0 * gram + 2.0 * curv * x2y2))
                if want.k else ())

    return 4.0 * ang * ang / kk, backward


class _Wanted(NamedTuple):
    """Which gradients a distance node's backward computes, decided when the
    node is built from which inputs require gradients: those of the left
    operand (``u``), the right operand (``v``) and the curvature magnitudes
    (``k``). The weights' gradient needs no group backward at all."""

    u: bool
    v: bool
    k: bool

    @property
    def x(self) -> bool:
        """dL/dx of the left lifts: read by dL/du, and by dL/dk through the lift."""
        return self.u or self.k

    @property
    def y(self) -> bool:
        """dL/dy of the right lifts, as :attr:`x`."""
        return self.v or self.k


def _group_backward(core_backward, k, sign, x, y, lift_back_x, lift_back_y, pairs=None):
    """The backward of one group, from dL/d(dist2) to the gradients of its
    slices of both operands and of ``k`` that a :class:`_Wanted` asks for
    (None for the others): the core's terms are reduced in the (m, B, N)
    layout, then pass through the Gram product and the lifts. A side whose
    dL/dx or dL/dy is not wanted skips its core term, sums, Gram product and
    lift backward; a frozen ``k`` skips the core's and the lifts' dL/dk.

    With ``pairs`` (flat indices into the (B, B) layout) the core covered
    those pairs only: their upstream gradients are gathered from the (B, B)
    gradient, and their terms are scattered back into zeros before the same
    reduction, so every sum runs in the matrix form's order.
    """
    def scatter(term):
        if term is None:
            return None
        full = np.zeros((len(k), x.shape[1] * y.shape[1]))
        full[:, pairs] = term
        return full.reshape(len(k), x.shape[1], y.shape[1])

    def backward(g, want):
        if pairs is None:
            gx2, gy2, ggram, gk_terms = core_backward(g, want)
        else:
            gx2, gy2, ggram, gk_terms = core_backward(g.reshape(-1)[pairs], want)
            gx2, gy2, ggram = scatter(gx2), scatter(gy2), scatter(ggram)
            gk_terms = tuple(scatter(t) for t in gk_terms)
        gk, gu, gku, gv, gkv = 0.0, None, None, None, None
        if gk_terms:
            g_n, g_ang, g_den = (t.sum(axis=(1, 2)) for t in gk_terms)
            gk = g_n / (2.0 * np.sqrt(k)) - 4.0 * g_ang / (k * k) + sign * g_den
        if want.x:
            gu, gku = lift_back_x(ggram @ y + 2.0 * gx2.sum(axis=2)[:, :, None] * x,
                                  want.u, want.k)
        if want.y:
            gv, gkv = lift_back_y(ggram.transpose(0, 2, 1) @ x
                                  + 2.0 * gy2.sum(axis=1)[:, :, None] * y, want.v, want.k)
        return gu, gv, gk + gku + gkv if want.k else None

    return backward


def _node(out, feats, protos, kmag, weights, groups) -> Tensor:
    """The autodiff node of a distance op. ``groups`` holds, per group, its
    curvature sign, feature columns, pool indices, weights and squared distances (both None
    when the op is unweighted) and its backward from :func:`_group_backward`,
    which runs only when an operand or ``kmag`` requires gradients."""
    parents = tuple(t for t in (feats, protos, kmag, weights) if t is not None)
    b, n = feats.shape[0], protos.shape[0]
    want = _Wanted(feats.requires_grad, protos.requires_grad,
                   kmag is not None and kmag.requires_grad)

    def bwd(g):
        gf, gp, gk, gw = (np.zeros_like(t.value) if t is not None and t.requires_grad else None
                          for t in (feats, protos, kmag, weights))
        for sign, cols, pool, w, dist2, group_backward in groups:
            if gw is not None:
                np.add.at(gw, pool, np.einsum("bn,mbn->m", g, dist2))
            # A Euclidean group's distances do not depend on its curvature.
            group_want = want if sign else want._replace(k=False)
            if not (group_want.x or group_want.y):
                continue
            gu, gv, gkm = group_backward(g if w is None else w[:, None, None] * g, group_want)
            if gf is not None:
                np.add.at(gf, (slice(None), cols), gu.transpose(1, 0, 2).reshape(b, -1))
            if gp is not None:
                np.add.at(gp, (slice(None), cols), gv.transpose(1, 0, 2).reshape(n, -1))
            if gkm is not None:
                np.add.at(gk, pool, gkm)
        for t, grad in zip((feats, protos, kmag, weights), (gf, gp, gk, gw)):
            if grad is not None:
                ad._accum(t, grad)

    return ad._make(out, parents, bwd)


def _measure(fv, pv, space: MixedSpace, kmag, weights, pairs=None, record=False):
    """The distance routine and the kernel's one walk: the (R, N) squared
    product distances between the lifts of the rows of ``fv`` (R, D) and
    ``pv`` (N, D), weighted per factor by ``weights`` (matrix form only), or
    with the boolean (R, N) mask ``pairs`` the listed entries only, zero
    elsewhere.

    Every group is lifted once, before the walk: both operands, or the rows
    once when ``pv`` is ``fv``, with :func:`_self_operand` as the right
    operand. A recorded call (``record``) is one tile and also returns the
    groups :func:`_node` needs. A forward-only call walks tiles of
    max(_TILE, _TILE^2 / N) rows by _TILE columns and skips a tile with no
    listed pair. In each tile each group takes one Gram product and runs the
    core on every entry or on the listed ones; a group's sum is added to the
    tile in group order, so every tiling gives the same values bit for bit.
    """
    lifts = []
    for sign, cols, pool, k in _layout(space, fv.shape[1]):
        k = k if kmag is None else kmag[pool]
        x, x2, back_x = _lifted(fv, cols, k, sign)
        y, y2, back_y = (_self_operand(x), x2, back_x) if pv is fv else _lifted(pv, cols, k, sign)
        w = None if weights is None else weights[pool]
        # A lift's backward holds its slices; only a recorded call keeps it.
        lifts.append((sign, cols, pool, k, w, x, x2, y, y2, (back_x, back_y) if record else ()))
    out = np.zeros((len(fv), len(pv)))
    if record:
        row_tiles, col_tiles = [(0, len(fv))], [(0, len(pv))]
    else:
        row_tiles = _tiles(len(fv), max(_TILE, _TILE * _TILE // max(len(pv), 1)))
        col_tiles = _tiles(len(pv), _TILE)
    groups = []
    for (r0, r1), (c0, c1) in itertools.product(row_tiles, col_tiles):
        if pairs is None:
            acc, flat = out[r0:r1, c0:c1], None
        else:
            # Flat indices, taken once per tile: a boolean mask would be
            # searched again by every group's gathers and scatters.
            flat = np.flatnonzero(pairs[r0:r1, c0:c1])
            if not len(flat):
                continue
            i, j = np.divmod(flat, c1 - c0)
            i += r0
            j += c0
            acc = np.zeros(len(flat))
        for sign, cols, pool, k, w, x, x2, y, y2, lift_backs in lifts:
            gram = x[:, r0:r1] @ y[:, c0:c1].transpose(0, 2, 1)
            if pairs is None:
                dist2, core_backward = _core(gram, x2[:, r0:r1, None], y2[:, None, c0:c1],
                                             k, sign)
            else:
                dist2, core_backward = _core(gram.reshape(len(k), -1)[:, flat], x2[:, i], y2[:, j],
                                             k, sign)
            acc += (dist2 if w is None else w[:, None, None] * dist2).sum(axis=0)
            if record:
                groups.append((sign, cols, pool, w, None if w is None else dist2, _group_backward(
                    core_backward, k, sign, x, y, *lift_backs, flat)))
        if pairs is not None:
            out[i, j] = acc
    return out, groups


def sq_dist_matrix(feats, protos, space: MixedSpace, kmag=None, weights=None) -> Tensor:
    """(B, N) squared product distances between the lifts of the rows of
    ``feats`` (B, D) and ``protos`` (N, D); arrays or Tensors.

    ``kmag`` optionally supplies the curvature magnitudes, indexed by pool
    index (otherwise |curvature| of each factor is used); ``weights``
    optionally supplies per-factor weights with the same indexing. Without
    an input that requires gradients no graph is built, and the routine
    walks tiles (see :func:`_measure`). In a run these calls are evaluation,
    on up to 200 test rows x 20 classes or 52 x 40: one tile each.
    """
    feats, protos = ad.as_tensor(feats), ad.as_tensor(protos)
    kmag = None if kmag is None else ad.as_tensor(kmag)
    weights = None if weights is None else ad.as_tensor(weights)
    record = any(t is not None and t.requires_grad for t in (feats, protos, kmag, weights))
    out, groups = _measure(feats.value, protos.value, space,
                           None if kmag is None else kmag.value,
                           None if weights is None else weights.value, record=record)
    return _node(out, feats, protos, kmag, weights, groups) if record else Tensor(out)


def pair_sq_dist(feats, pairs: np.ndarray, space: MixedSpace, kmag=None) -> Tensor:
    """(B, B) squared product distances between the lifts of the rows of
    ``feats`` (B, D) on the pairs where the boolean (B, B) mask ``pairs``
    is set, and zero elsewhere.

    Only the listed pairs go through the distance formula and its backward;
    values and gradients equal those of ``sq_dist_matrix(feats, feats, ...)``
    on the listed pairs. ``kmag`` is as in :func:`sq_dist_matrix`. Without
    an input that requires gradients no graph is built, and only the tiles
    that hold a listed pair are visited (see :func:`_measure`): the
    previous-step model's context lists a fifth to all of the upper triangle
    of up to B = 400 rows in a run.
    """
    feats = ad.as_tensor(feats)
    kmag = None if kmag is None else ad.as_tensor(kmag)
    record = feats.requires_grad or kmag is not None and kmag.requires_grad
    fv = feats.value
    out, groups = _measure(fv, fv, space, None if kmag is None else kmag.value, None, pairs,
                           record)
    return _node(out, feats, feats, kmag, None, groups) if record else Tensor(out)


def _tiles(n: int, size: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of at most ``size`` rows covering ``n`` rows.

    A lone leftover row joins the last tile: a one-row product would go
    through BLAS's matrix-vector kernel, which rounds differently from the
    matrix-matrix kernel the other tiles use.
    """
    edges = list(range(0, n, size)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _self_operand(x: np.ndarray) -> np.ndarray:
    """The right operand of a Gram product of the lifts ``x`` with
    themselves: a copy, so that the product is the general matrix product of
    two lifts, bit for bit (NumPy computes a product of an array with its own
    transpose by a symmetric rank-k update, which rounds differently). The
    copy keeps the lift's memory layout, so BLAS reads both operands as it
    reads two lifts."""
    return x.copy(order="K")


def lifted_sq_distance(u: Tensor, v: Tensor, kmag: Tensor, sign: float) -> Tensor:
    """One-factor case of :func:`sq_dist_matrix`: squared distances between
    the lifts of the rows of ``u`` (R, d) and of ``v`` (N, d) on a factor of
    curvature sign ``sign`` and magnitude ``kmag`` (a (1,) tensor)."""
    space = MixedSpace((FactorSpec(0, 1, u.shape[1], float(sign)),))
    return sq_dist_matrix(u, v, space, kmag=kmag)
