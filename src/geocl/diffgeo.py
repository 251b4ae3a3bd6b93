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
backward. They serve three callers:

- ``sq_dist_matrix`` recording for autodiff (the classification and search
  losses) runs the core over the whole (m, B, N) matrix;
- ``pair_sq_dist`` (the neighbor loss) runs the core forward and backward
  on the listed pairs of one batch only, and scatters the per-pair backward
  terms into the (m, B, B) layout before the reduction, so its gradients
  are those of the matrix form;
- ``sq_dist_matrix`` without an input requiring gradients (evaluation and
  the previous-step model) lifts both operands once and runs the core over
  square tiles; when both operands are the same rows, only the tiles on or
  above the diagonal are computed, and mirrored.

Training, evaluation and the previous-step model thus measure with one
metric; ``geometry`` stays the independent oracle.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry
from .autodiff import Tensor
from .errors import ConfigurationError
from .product import FactorSpec, MixedSpace

# tanh(arg) <= 1 - BALL_EPS, i.e. the lift respects the ball margin.
_BALL_ARG_CAP = float(np.arctanh(1.0 - geometry.BALL_EPS))
# Added under every square root, so a zero slice or a zero distance has a norm.
_NORM_EPS = 1e-30
# artanh arguments are clipped short of the branch point.
_ATANH_CLIP = 1.0 - 1e-15
# Forward-only calls run over tiles of at most this many columns, and as many
# rows as keep a tile within _TILE^2 entries, so that a group's (m, rows,
# columns) intermediates stay in cache.
_TILE = 64


def _groups(space: MixedSpace, width: int, kmag: np.ndarray | None):
    """Factors grouped by (slice width, curvature sign).

    Yields (sign, feature columns, pool indices, curvature magnitudes) per
    group; the columns of a group's factors are laid out factor after factor.
    ``kmag``, indexed by pool index, overrides the factors' magnitudes.
    """
    groups: dict[tuple[int, float], list[FactorSpec]] = {}
    for f in space.factors:
        if f.slice_end > width:
            raise ConfigurationError(
                f"factor {f.pool_index} slice [{f.slice_start}, {f.slice_end}] "
                f"exceeds feature dim {width}")
        groups.setdefault((f.dim, float(np.sign(f.curvature))), []).append(f)
    for (_, sign), members in groups.items():
        cols = np.concatenate([np.arange(f.slice_start - 1, f.slice_end) for f in members])
        pool = np.array([f.pool_index for f in members])
        k = np.array([abs(f.curvature) for f in members]) if kmag is None else kmag[pool]
        yield sign, cols, pool, k


def _lift(u, k, sign):
    """Exp map at the origin of the rows of ``u`` (m, R, d), x = a u with
    a = tan_K(min(t, cap)) / t at t = sqrt(k) |u|, and the map from dL/dx to
    (dL/du, dL/dk). The Euclidean lift is the identity."""
    if sign == 0:
        return u, lambda gx: (gx, 0.0)
    cap = geometry.TAN_CAP if sign > 0 else _BALL_ARG_CAP
    t = np.sqrt(k)[:, None] * np.sqrt(np.einsum("mrd,mrd->mr", u, u) + _NORM_EPS)
    inside = t < cap
    tk = np.tan(np.where(inside, t, cap)) if sign > 0 else np.tanh(np.where(inside, t, cap))
    a = tk / t

    def backward(gx):
        dtk = 1.0 + tk * tk if sign > 0 else 1.0 - tk * tk
        gt = np.einsum("mrd,mrd->mr", gx, u) * (inside * dtk - a) / t
        # t = sqrt(k) sqrt(|u|^2 + eps): dt/du = k u / t, dt/dk = t / (2 k).
        gu = a[:, :, None] * gx + (gt * k[:, None] / t)[:, :, None] * u
        return gu, (gt * t).sum(axis=1) / (2.0 * k)

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
    backward maps dL/d(dist2) to the terms that :func:`_group_backward`
    reduces: those of dL/d|x|^2, dL/d|y|^2 and dL/d<x,y>, and the three
    terms of dL/dk (none for a Euclidean group).
    """
    num = x2 + y2 - 2.0 * gram
    if sign == 0:
        def euclidean_backward(gd):
            gnum = 4.0 * gd * (num > 0.0)
            return gnum, gnum, -2.0 * gnum, ()

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
        z = np.clip(z, -_ATANH_CLIP, _ATANH_CLIP)
        ang = np.arctanh(z)
    else:
        ang = np.arctan(z)

    def backward(gd):
        # dist2 = 4 ang^2 / k, ang = arctan_K(z), z = sqrt(k) n, n^2 = ratio.
        dang = 1.0 / (1.0 - z * z) if sign < 0 else 1.0 / (1.0 + z * z)
        gz = gd * (8.0 * ang / kk) * dang
        gratio = gz * (num > 0.0) * sk / (2.0 * n)
        gnum = gratio / den
        gden = -gratio * ratio / den
        return (gnum + curv * curv * gden * y2, gnum + curv * curv * gden * x2,
                2.0 * curv * gden - 2.0 * gnum,
                (gz * n, gd * ang * ang, gden * (2.0 * gram + 2.0 * curv * x2y2)))

    return 4.0 * ang * ang / kk, backward


def _group_backward(core_backward, k, sign, x, y, lift_back_x, lift_back_y, pairs=None):
    """The backward of one group, from dL/d(dist2) to the gradients of its
    slices of both operands and of ``k``: the core's terms are reduced in
    the (m, B, N) layout, then pass through the Gram product and the lifts.

    With ``pairs`` (flat indices into the (B, B) layout) the core covered
    those pairs only: their upstream gradients are gathered from the (B, B)
    gradient, and their terms are scattered back into zeros before the same
    reduction, so every sum runs in the matrix form's order.
    """
    def backward(g):
        if pairs is None:
            gx2, gy2, ggram, gk_terms = core_backward(g)
        else:
            gx2, gy2, ggram, gk_terms = core_backward(g.reshape(-1)[pairs])
            terms = [gx2, gy2, ggram, *gk_terms]
            full = np.zeros((len(terms), len(k), x.shape[1] * y.shape[1]))
            full[:, :, pairs] = terms
            gx2, gy2, ggram, *gk_terms = full.reshape(len(terms), len(k), x.shape[1], y.shape[1])
        gx2, gy2 = gx2.sum(axis=2), gy2.sum(axis=1)
        gk = 0.0
        if gk_terms:
            g_n, g_ang, g_den = (t.sum(axis=(1, 2)) for t in gk_terms)
            gk = g_n / (2.0 * np.sqrt(k)) - 4.0 * g_ang / (k * k) + sign * g_den
        gu, gku = lift_back_x(ggram @ y + 2.0 * gx2[:, :, None] * x)
        gv, gkv = lift_back_y(ggram.transpose(0, 2, 1) @ x + 2.0 * gy2[:, :, None] * y)
        return gu, gv, gk + gku + gkv

    return backward


def _node(out, feats, protos, kmag, weights, groups) -> Tensor:
    """The autodiff node of a distance op. ``groups`` holds, per group, its
    feature columns, pool indices, weights and squared distances (both None
    when the op is unweighted) and its backward from :func:`_group_backward`."""
    parents = tuple(t for t in (feats, protos, kmag, weights) if t is not None)
    b, n = feats.shape[0], protos.shape[0]

    def bwd(g):
        gf, gp, gk, gw = (np.zeros_like(t.value) if t is not None and t.requires_grad else None
                          for t in (feats, protos, kmag, weights))
        for cols, pool, w, dist2, group_backward in groups:
            if gw is not None:
                np.add.at(gw, pool, np.einsum("bn,mbn->m", g, dist2))
            gu, gv, gkm = group_backward(g if w is None else w[:, None, None] * g)
            if gf is not None:
                np.add.at(gf, (slice(None), cols), gu.transpose(1, 0, 2).reshape(b, -1))
            if gp is not None:
                np.add.at(gp, (slice(None), cols), gv.transpose(1, 0, 2).reshape(n, -1))
            if gk is not None:
                np.add.at(gk, pool, gkm)
        for t, grad in zip((feats, protos, kmag, weights), (gf, gp, gk, gw)):
            if grad is not None:
                ad._accum(t, grad)

    return ad._make(out, parents, bwd)


def sq_dist_matrix(feats, protos, space: MixedSpace, kmag=None, weights=None) -> Tensor:
    """(B, N) squared product distances between the lifts of the rows of
    ``feats`` (B, D) and ``protos`` (N, D); arrays or Tensors.

    ``kmag`` optionally supplies the curvature magnitudes, indexed by pool
    index (otherwise |curvature| of each factor is used); ``weights``
    optionally supplies per-factor weights with the same indexing. Without
    an input that requires gradients no graph is built, and the matrix is
    computed in tiles (see :func:`_tiled`).
    """
    feats, protos = ad.as_tensor(feats), ad.as_tensor(protos)
    kmag = None if kmag is None else ad.as_tensor(kmag)
    weights = None if weights is None else ad.as_tensor(weights)
    fv, pv = feats.value, protos.value
    kv = None if kmag is None else kmag.value
    if not any(t is not None and t.requires_grad for t in (feats, protos, kmag, weights)):
        return Tensor(_tiled(fv, pv, space, kv, None if weights is None else weights.value))
    out = np.zeros((fv.shape[0], pv.shape[0]))
    groups = []
    for sign, cols, pool, k in _groups(space, fv.shape[1], kv):
        x, x2, lift_back_x = _lifted(fv, cols, k, sign)
        y, y2, lift_back_y = _lifted(pv, cols, k, sign)
        dist2, core_backward = _core(x @ y.transpose(0, 2, 1), x2[:, :, None],
                                     y2[:, None, :], k, sign)
        w = None if weights is None else weights.value[pool]
        out += (dist2 if w is None else w[:, None, None] * dist2).sum(axis=0)
        groups.append((cols, pool, w, dist2, _group_backward(
            core_backward, k, sign, x, y, lift_back_x, lift_back_y)))
    return _node(out, feats, protos, kmag, weights, groups)


def pair_sq_dist(feats, pairs: np.ndarray, space: MixedSpace, kmag=None) -> Tensor:
    """(B, B) squared product distances between the lifts of the rows of
    ``feats`` (B, D) on the pairs where the boolean (B, B) mask ``pairs``
    is set, and zero elsewhere.

    Only the listed pairs go through the distance formula and its backward;
    values and gradients equal those of ``sq_dist_matrix(feats, feats, ...)``
    on the listed pairs. ``kmag`` is as in :func:`sq_dist_matrix`.
    """
    feats = ad.as_tensor(feats)
    kmag = None if kmag is None else ad.as_tensor(kmag)
    fv = feats.value
    flat = np.flatnonzero(pairs)
    i, j = np.divmod(flat, fv.shape[0])
    values = np.zeros(len(flat))
    groups = []
    for sign, cols, pool, k in _groups(space, fv.shape[1], None if kmag is None else kmag.value):
        # Two lifts of the same rows, so the Gram block is the same general
        # matrix product as in the matrix form (NumPy computes a product
        # with its own transpose by a symmetric rank-k update instead).
        x, x2, lift_back_x = _lifted(fv, cols, k, sign)
        y, y2, lift_back_y = _lifted(fv, cols, k, sign)
        gram = (x @ y.transpose(0, 2, 1)).reshape(len(k), -1)
        dist2, core_backward = _core(gram[:, flat], x2[:, i], y2[:, j], k, sign)
        values += dist2.sum(axis=0)
        groups.append((cols, pool, None, None, _group_backward(
            core_backward, k, sign, x, y, lift_back_x, lift_back_y, flat)))
    out = np.zeros(pairs.shape)
    out.flat[flat] = values
    return _node(out, feats, feats, kmag, None, groups)


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


def _tiled(fv, pv, space: MixedSpace, kmag, weights) -> np.ndarray:
    """Forward-only :func:`sq_dist_matrix` on arrays, over tiles.

    Each operand is lifted once per group. With at least ``_TILE`` columns
    the tiles are square. When ``fv`` is ``pv`` the matrix is symmetric:
    only the tiles on or above the diagonal are computed, and each
    off-diagonal one is mirrored. The tiles of a product and of its
    transpose are transposes of each other bit for bit, so the result equals
    the one computed from a copy of the rows.
    """
    same = fv is pv
    lifted = []
    for sign, cols, pool, k in _groups(space, fv.shape[1], kmag):
        # Both operands are lifted even when they are the same rows, so that
        # a diagonal tile is not a product with its own transpose.
        x, x2, _ = _lifted(fv, cols, k, sign)
        y, y2, _ = _lifted(pv, cols, k, sign)
        lifted.append((sign, k, None if weights is None else weights[pool], x, x2, y, y2))
    out = np.empty((fv.shape[0], pv.shape[0]))
    row_tiles = _tiles(fv.shape[0], max(_TILE, _TILE * _TILE // max(pv.shape[0], 1)))
    col_tiles = _tiles(pv.shape[0], _TILE)
    for t, (r0, r1) in enumerate(row_tiles):
        for c0, c1 in col_tiles[t if same else 0:]:
            tile = np.zeros((r1 - r0, c1 - c0))
            for sign, k, w, x, x2, y, y2 in lifted:
                dist2, _ = _core(x[:, r0:r1] @ y[:, c0:c1].transpose(0, 2, 1),
                                 x2[:, r0:r1, None], y2[:, None, c0:c1], k, sign)
                tile += (dist2 if w is None else w[:, None, None] * dist2).sum(axis=0)
            out[r0:r1, c0:c1] = tile
            if same and c0 != r0:
                out[c0:c1, r0:r1] = tile.T
    return out


def lifted_sq_distance(u: Tensor, v: Tensor, kmag: Tensor, sign: float) -> Tensor:
    """One-factor case of :func:`sq_dist_matrix`: squared distances between
    the lifts of the rows of ``u`` and of ``v`` on a factor of curvature
    sign ``sign`` and magnitude ``kmag`` (a scalar tensor)."""
    d = u.shape[-1]
    space = MixedSpace((FactorSpec(0, 1, d, float(sign)),))
    return sq_dist_matrix(ad.reshape(u, (-1, d)), ad.reshape(v, (-1, d)), space,
                          kmag=ad.reshape(kmag, (1,)))
