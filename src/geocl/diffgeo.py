"""The product-distance kernel: one autodiff op over every factor of a space.

``sq_dist_matrix`` returns the (B, N) matrix of squared product-geodesic
distances between the lifts of B feature rows and N prototype rows: the sum
over the factors of a ``MixedSpace`` of the per-factor squared distances,
optionally weighted per factor. A factor lifts its raw slice u by the
exponential map at the origin and measures the gyro-distance there. In the
kappa-stereographic model the lift only rescales each row, so the distance
needs only the Gram block <x,y> and the norms |x|^2, |y|^2 of the lifts:

    lift      x = a(|u|) u,  a(r) = tan_K(min(sqrt|K| r, cap)) / (sqrt|K| r)
    gyro      |(-x) (+)_K y|^2 = (|x|^2 + |y|^2 - 2<x,y>)
                                 / (1 + 2K<x,y> + K^2 |x|^2 |y|^2)
    distance  d = (2 / sqrt|K|) arctan_K(sqrt|K| |(-x) (+)_K y|)

A zero-curvature factor gives 4 |u - v|^2. The cap keeps spherical lifts
inside the injectivity radius (``geometry.TAN_CAP``) and hyperbolic lifts
inside the ball margin. Factors are evaluated in groups of equal slice width
and curvature sign, one batched Gram product per group.

The op is a single autodiff node whose backward is written by hand for the
features, the prototypes, the curvature magnitudes and the selection
weights. Training, evaluation and the previous-step model all use it, so
they measure with one metric; ``geometry`` stays the independent oracle.
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
# Forward-only calls (the previous-step model over the whole buffer) run
# in row blocks, so a group's (m, B, N) intermediates stay near 8 MB each.
_BLOCK = 1 << 20


def _groups(space: MixedSpace, width: int):
    """Factors grouped by (slice width, curvature sign).

    Yields (sign, feature columns, pool indices, curvature magnitudes) per
    group; the columns of a group's factors are laid out factor after factor.
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
        yield (sign, cols, np.array([f.pool_index for f in members]),
               np.array([abs(f.curvature) for f in members]))


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


def _group(u, v, k, sign):
    """Squared distances (m, B, N) of one group of factors, and its backward.

    ``u`` (m, B, d) and ``v`` (m, N, d) are the group's slices, ``k`` (m,)
    the curvature magnitudes. The backward maps dL/d(dist2) to the
    gradients of u, v and k.
    """
    x, lift_back_u = _lift(u, k, sign)
    y, lift_back_v = _lift(v, k, sign)
    gram = x @ y.transpose(0, 2, 1)
    x2 = np.einsum("mbd,mbd->mb", x, x)[:, :, None]
    y2 = np.einsum("mnd,mnd->mn", y, y)[:, None, :]
    num = x2 + y2 - 2.0 * gram
    if sign == 0:
        dist2 = 4.0 * np.maximum(num, 0.0)
    else:
        kk = k[:, None, None]
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
        dist2 = 4.0 * ang * ang / kk

    def backward(gd):
        if sign == 0:
            gnum = 4.0 * gd * (num > 0.0)
            gx2, gy2, ggram, gk = gnum.sum(axis=2), gnum.sum(axis=1), -2.0 * gnum, 0.0
        else:
            # dist2 = 4 ang^2 / k, ang = arctan_K(z), z = sqrt(k) n, n^2 = ratio.
            dang = 1.0 / (1.0 - z * z) if sign < 0 else 1.0 / (1.0 + z * z)
            gz = gd * (8.0 * ang / kk) * dang
            gratio = gz * (num > 0.0) * sk / (2.0 * n)
            gnum = gratio / den
            gden = -gratio * ratio / den
            gx2 = (gnum + curv * curv * gden * y2).sum(axis=2)
            gy2 = (gnum + curv * curv * gden * x2).sum(axis=1)
            ggram = 2.0 * curv * gden - 2.0 * gnum
            gk = ((gz * n).sum(axis=(1, 2)) / (2.0 * sk[:, 0, 0])
                  - 4.0 * (gd * ang * ang).sum(axis=(1, 2)) / (k * k)
                  + sign * (gden * (2.0 * gram + 2.0 * curv * x2y2)).sum(axis=(1, 2)))
        gu, gku = lift_back_u(ggram @ y + 2.0 * gx2[:, :, None] * x)
        gv, gkv = lift_back_v(ggram.transpose(0, 2, 1) @ x + 2.0 * gy2[:, :, None] * y)
        return gu, gv, gk + gku + gkv

    return dist2, backward


def sq_dist_matrix(feats, protos, space: MixedSpace, kmag=None, weights=None) -> Tensor:
    """(B, N) squared product distances between the lifts of the rows of
    ``feats`` (B, D) and ``protos`` (N, D); arrays or Tensors.

    ``kmag`` optionally supplies the curvature magnitudes, indexed by pool
    index (otherwise |curvature| of each factor is used); ``weights``
    optionally supplies per-factor weights with the same indexing. Without
    an input that requires gradients no graph and no intermediates are kept.
    """
    feats, protos = ad.as_tensor(feats), ad.as_tensor(protos)
    kmag = None if kmag is None else ad.as_tensor(kmag)
    weights = None if weights is None else ad.as_tensor(weights)
    fv, pv = feats.value, protos.value
    b, n = fv.shape[0], pv.shape[0]
    record = any(t is not None and t.requires_grad for t in (feats, protos, kmag, weights))
    if not record and b > 1 and b * n * len(space.factors) > _BLOCK:
        rows = max(1, _BLOCK // (n * len(space.factors)))
        return Tensor(np.concatenate([
            sq_dist_matrix(fv[i:i + rows], pv, space, kmag, weights).value
            for i in range(0, b, rows)]))
    out = np.zeros((b, n))
    groups = []
    for sign, cols, pool, mags in _groups(space, fv.shape[1]):
        m = len(pool)
        u = fv[:, cols].reshape(b, m, -1).transpose(1, 0, 2)
        v = pv[:, cols].reshape(n, m, -1).transpose(1, 0, 2)
        k = mags if kmag is None else kmag.value[pool]
        dist2, group_backward = _group(u, v, k, sign)
        w = None if weights is None else weights.value[pool]
        out += (dist2 if w is None else w[:, None, None] * dist2).sum(axis=0)
        if record:
            groups.append((cols, pool, w, dist2, group_backward))
    if not record:
        return Tensor(out)

    parents = tuple(t for t in (feats, protos, kmag, weights) if t is not None)

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


def lifted_sq_distance(u: Tensor, v: Tensor, kmag: Tensor, sign: float) -> Tensor:
    """One-factor case of :func:`sq_dist_matrix`: squared distances between
    the lifts of the rows of ``u`` and of ``v`` on a factor of curvature
    sign ``sign`` and magnitude ``kmag`` (a scalar tensor)."""
    d = u.shape[-1]
    space = MixedSpace((FactorSpec(0, 1, d, float(sign)),))
    return sq_dist_matrix(ad.reshape(u, (-1, d)), ad.reshape(v, (-1, d)), space,
                          kmag=ad.reshape(kmag, (1,)))

