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
inside the ball margin.

A space's factors form one block per curvature sign, and a block one part
per slice width, signs and widths in order of first occurrence. A part is
lifted as one (m, R, d) array and takes one batched Gram product, written
into its rows of the block's (m, R, N) Gram array; the elementwise core then
runs once per block, over every factor of that sign. Each part's sum over
its factors is added into the tile, and its gradients scattered by runs of
consecutive columns, block by block.

Three pieces make up the kernel: ``_lift``; one elementwise core over
broadcastable (Gram, |x|^2, |y|^2) arrays with its elementwise backward; and
one reduction of the core's backward terms in the (m, B, N) layout of a
block's m factors, which ends in each part's Gram-backward products and
lift backward. One routine, ``_measure``, runs them in the kernel's one
walk: it lifts every part once, then per tile takes every part's Gram
product and runs the core once per block, on every entry or on the listed
entries only. The kernel's one op, ``sq_dist_matrix``, is one call of it,
in one of four modes, by whether an input is a Tensor and whether a
``pairs`` mask lists the entries to measure:

- recorded, every entry (the classification and search losses): one tile,
  the whole (B, N) matrix;
- recorded, listed pairs (the neighbor loss, a batch against itself): one
  tile with the listed pairs; the backward scatters the per-pair terms into
  the (m, B, N) layout one at a time before the reduction, so its
  gradients are those of the matrix form;
- forward only, every entry (evaluation): no backward kept, and tiles of
  ``_TILE`` rows by ``_TILE`` columns, so that a block's intermediates stay
  in cache;
- forward only, listed pairs (the previous-step model's distances on the
  pairs the structure losses read): the same tiles, skipping those that
  hold no listed pair and measuring the listed entries of the others.

The op takes plain arrays as they are and Tensors by their values; only an
input that is a Tensor joins its node, and without one the op returns a
plain array.

Every path and tiling gives the same values bit for bit.

The core computes in place, and a recorded core keeps only what its
backward reads: the mask of positive numerators, the denominator, the
ratio, its root and the angle, and the Gram entries and |x|^2 |y|^2 only
when the curvature trains. A recorded node decides when it is built which
backward pieces run, from which of feats (u), protos (v), kmag (k) and
weights are Tensors:

- dL/dw needs only the forward distances, and no block backward; a node
  keeps them only when the weights train (the search), not for the
  warm-up's frozen uniform weights;
- a frozen k (main training, the warm-up, the neighbor loss) skips the
  core's three dL/dk terms, their scatter on the pair path and the lifts'
  dL/dk sums;
- an operand that is frozen while k is too (the features in the warm-up)
  skips its whole side: its core term, |x|^2 sums, Gram-backward products
  and lift backward;
- a trainable k with both operands frozen (the search) runs both sides up
  to the lifts' dL/dk, but assembles no dL/du or dL/dv;
- a Euclidean block has no curvature, so it runs as if k were frozen: in
  the search on the one-factor Euclidean pool it runs no backward at all.

The pieces that run are the same operations in the same order, so every
gradient that is read is bit for bit the one of a call where every input
is a Tensor. The blocks of a space are built once per (space,
feature width).

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
from .errors import ContractViolation
from .product import FactorSpec, MixedSpace

# tanh(arg) <= 1 - BALL_EPS, i.e. the lift respects the ball margin.
_BALL_ARG_CAP = float(np.arctanh(1.0 - geometry.BALL_EPS))
# Added under every square root, so a zero slice or a zero distance has a norm.
_NORM_EPS = 1e-30
# artanh arguments are clipped short of the branch point.
_ATANH_CLIP = 1.0 - 1e-15
# A forward-only walk's tiles are _TILE rows by _TILE columns, so that a
# block's (m, rows, columns) intermediates stay in cache.
_TILE = 64


class _Part(NamedTuple):
    """A block's factors of one slice width: its rows ``span`` of the
    block's factor axis, its feature columns (factor after factor) and pool
    indices, and the runs of consecutive columns in ``cols``
    (``autodiff.col_runs``), which the backward scatters into one slice add
    each."""

    span: slice
    cols: np.ndarray
    pool: np.ndarray
    runs: tuple[tuple[slice, slice], ...]


class _Block(NamedTuple):
    """A space's factors of one curvature sign: its parts, and the pool
    indices and curvature magnitudes of their factors, part after part."""

    sign: float
    parts: tuple[_Part, ...]
    pool: np.ndarray
    k: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(space: MixedSpace, width: int) -> tuple[_Block, ...]:
    """The blocks of ``space``, one per curvature sign in order of first
    occurrence, each with one part per slice width in order of first
    occurrence within the sign; built once per (space, feature width), with
    read-only arrays. A factor past the feature width is rejected."""
    space.check_width(width)
    by_sign: dict[float, dict[int, list[FactorSpec]]] = {}
    for f in space.factors:
        by_sign.setdefault(float(np.sign(f.curvature)), {}).setdefault(f.dim, []).append(f)
    layout = []
    for sign, by_width in by_sign.items():
        factors = [f for fs in by_width.values() for f in fs]
        pool = np.array([f.pool_index for f in factors])
        k = np.array([abs(f.curvature) for f in factors])
        pool.flags.writeable = k.flags.writeable = False
        parts, start = [], 0
        for fs in by_width.values():
            span = slice(start, start + len(fs))
            start = span.stop
            cols = np.concatenate([f.columns for f in fs])
            cols.flags.writeable = False
            parts.append(_Part(span, cols, pool[span], ad.col_runs(cols)))
        layout.append(_Block(sign, tuple(parts), pool, k))
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
    """Lift of a part's slices of the rows of ``a`` (R, D): the lift x
    (m, R, d), its squared norms (m, R) and the lift's backward."""
    u = a[:, cols].reshape(len(a), len(k), -1).transpose(1, 0, 2)
    x, backward = _lift(u, k, sign)
    return x, np.einsum("mrd,mrd->mr", x, x), backward


def _core(gram, x2, y2, k, sign, keep_k=None):
    """Squared distances of one block, elementwise from the Gram form, and
    the elementwise backward.

    ``gram``, ``x2`` = |x|^2 and ``y2`` = |y|^2 broadcast together; axis 0
    runs over the block's factors, of curvature magnitudes ``k``. The core
    works in place and overwrites ``gram``, unless ``keep_k`` is set: the
    curvature trains, and the backward reads the Gram entries and
    |x|^2 |y|^2 for the terms of dL/dk. With ``keep_k`` None the call is
    forward only: it keeps nothing and returns no backward.

    The backward maps dL/d(dist2) and a :class:`_Wanted` to the terms that
    :func:`_block_backward` reduces: those of dL/d|x|^2 and dL/d|y|^2 (None
    for a side that is not wanted), of dL/d<x,y>, and the three terms of
    dL/dk (none for a Euclidean block, or when the curvature is frozen).
    Each term is the one of the plain formula bit for bit; twice a product
    is formed as the product with the doubled factor, which rounds alike.
    """
    two_gram = np.multiply(gram, 2.0, out=None if keep_k else gram)
    num = x2 + y2
    num -= two_gram
    # The sign of the numerator, which only a backward reads.
    mask = None if keep_k is None else num > 0.0
    if sign == 0:
        dist2 = np.maximum(num, 0.0, out=num)
        dist2 *= 4.0
        if keep_k is None:
            return dist2, None

        def euclidean_backward(gd, want):
            gnum = 4.0 * gd * mask
            return (gnum if want.x else None, gnum if want.y else None, -2.0 * gnum, ())

        return dist2, euclidean_backward
    kk = k.reshape((-1,) + (1,) * (gram.ndim - 1))
    sk = np.sqrt(kk)
    curv = sign * kk
    # den = 1 + 2K<x,y> + K^2 |x|^2 |y|^2, in the buffer of 2<x,y>.
    den = two_gram
    den *= curv
    den += 1.0
    x2y2 = x2 * y2
    scratch = np.multiply(x2y2, curv * curv, out=None if keep_k else x2y2)
    den += scratch
    ratio = np.maximum(num, 0.0, out=num)
    ratio /= den
    n = np.add(ratio, _NORM_EPS, out=scratch)
    np.sqrt(n, out=n)
    ang = _clipped_z(n, sk, sign)
    if sign < 0:
        np.arctanh(ang, out=ang)
    else:
        np.arctan(ang, out=ang)
    dist2 = ang * 4.0
    dist2 *= ang
    dist2 /= kk
    if keep_k is None:
        return dist2, None

    def backward(gd, want):
        # dist2 = 4 ang^2 / k, ang = arctan_K(z), z = sqrt(k) n, n^2 = ratio.
        dang = _clipped_z(n, sk, sign)
        dang *= dang
        if sign < 0:
            np.subtract(1.0, dang, out=dang)
        else:
            dang += 1.0
        np.divide(1.0, dang, out=dang)
        gz = ang * 8.0
        gz /= kk
        np.multiply(gd, gz, out=gz)
        gz *= dang
        k_terms = (gz * n, gd * ang * ang) if want.k else ()
        # dL/dratio = gz [num > 0] sqrt(k) / (2 n), in the buffer of dL/dz.
        gratio = gz
        gratio *= mask
        gratio *= sk
        gratio /= np.multiply(n, 2.0, out=dang)
        gden = np.negative(gratio, out=dang)
        gden *= ratio
        gden /= den
        gnum = gratio
        gnum /= den
        if want.k:
            q = gram * 2.0
            q += x2y2 * (2.0 * curv)
            q *= gden
            k_terms += (q,)
        cc_gden = gden * (curv * curv)
        gx2 = gy2 = None
        if want.x:
            gx2 = cc_gden * y2 if want.y else np.multiply(cc_gden, y2, out=cc_gden)
            gx2 += gnum
        if want.y:
            gy2 = np.multiply(cc_gden, x2, out=cc_gden)
            gy2 += gnum
        ggram = gden
        ggram *= 2.0 * curv
        gnum *= 2.0
        ggram -= gnum
        return gx2, gy2, ggram, k_terms

    return dist2, backward


def _clipped_z(n, sk, sign):
    """z = sqrt(k) n of the core, as a new array, clipped short of artanh's
    branch point on a hyperbolic block (z > 0: only the upper clip can
    bind)."""
    z = n * sk
    return np.minimum(z, _ATANH_CLIP, out=z) if sign < 0 else z


class _Wanted(NamedTuple):
    """Which gradients a distance node's backward computes, decided when the
    node is built from which inputs are Tensors: those of the left
    operand (``u``), the right operand (``v``), the curvature magnitudes
    (``k``) and the weights (``w``). The weights' gradient needs no block
    backward at all, only the unweighted distances."""

    u: bool
    v: bool
    k: bool
    w: bool

    @property
    def x(self) -> bool:
        """dL/dx of the left lifts: read by dL/du, and by dL/dk through the lift."""
        return self.u or self.k

    @property
    def y(self) -> bool:
        """dL/dy of the right lifts, as :attr:`x`."""
        return self.v or self.k


def _wanted(feats, protos, kmag, weights) -> _Wanted | None:
    """The :class:`_Wanted` of a distance op's node, or None when no input
    is a Tensor and the op builds no node."""
    want = _Wanted(*(isinstance(t, Tensor) for t in (feats, protos, kmag, weights)))
    return want if any(want) else None


def _block_backward(core_backward, block, k, lifts, shape, pairs=None):
    """The backward of one block, from dL/d(dist2) to the gradients of each
    part's slices of both operands and of ``k`` that a :class:`_Wanted`
    asks for (None for the others), as (part, dL/du, dL/dv, dL/dk) per
    part: the core's terms are reduced in the (m, B, N) layout, then pass
    through each part's Gram products and lifts. A side whose dL/dx or dL/dy
    is not wanted skips its core term, sums, Gram products and lift
    backward; a frozen ``k`` skips the core's and the lifts' dL/dk.

    With ``pairs`` (flat indices into the (B, N) layout) the core covered
    those pairs only: their upstream gradients are gathered from the (B, N)
    gradient, and their terms are scattered back into zeros, one term at a
    time, before the same reduction, so every sum runs in the matrix form's
    order.
    """
    def full(term):
        if pairs is None:
            return term
        out = np.zeros((len(k), shape[0] * shape[1]))
        out[:, pairs] = term
        return out.reshape(len(k), *shape)

    def backward(g, want):
        gx2, gy2, ggram, gk_terms = core_backward(g if pairs is None else g.reshape(-1)[pairs],
                                                  want)
        sx2 = None if gx2 is None else full(gx2).sum(axis=2)
        sy2 = None if gy2 is None else full(gy2).sum(axis=1)
        gk = None
        if gk_terms:
            g_n, g_ang, g_den = (full(t).sum(axis=(1, 2)) for t in gk_terms)
            gk = g_n / (2.0 * np.sqrt(k)) - 4.0 * g_ang / (k * k) + block.sign * g_den
        gx2 = gy2 = gk_terms = None
        ggram = full(ggram)
        grads = []
        for part, (x, y, back_x, back_y) in zip(block.parts, lifts):
            s = part.span
            gu = gku = gv = gkv = None
            if sx2 is not None:
                gu, gku = back_x(ggram[s] @ y + 2.0 * sx2[s][:, :, None] * x, want.u, want.k)
            if sy2 is not None:
                gv, gkv = back_y(ggram[s].transpose(0, 2, 1) @ x
                                 + 2.0 * sy2[s][:, :, None] * y, want.v, want.k)
            grads.append((part, gu, gv, None if gk is None else gk[s] + gku + gkv))
        return grads

    return backward


def _node(out, feats, protos, kmag, weights, want, blocks) -> Tensor:
    """The autodiff node of a distance op. ``blocks`` holds, per block, its
    :class:`_Block`, its weights (None when the op is unweighted), its
    unweighted squared distances (None unless the weights train) and its
    backward from :func:`_block_backward`, which runs only when an operand
    or ``kmag`` trains.

    A part's gradients reach the features and prototypes by one slice add
    per run of consecutive columns (:attr:`_Part.runs`), run after run and
    part after part in block order: the order in which ``np.add.at`` adds
    repeated columns, so slices that overlap add up alike, bit for bit.
    Every pool index occurs once in a space, so dL/dw and dL/dk take
    indexed adds."""
    b, n = feats.shape[0], protos.shape[0]

    def bwd(g):
        gf, gp, gk, gw = (np.zeros_like(t.value) if isinstance(t, Tensor) else None
                          for t in (feats, protos, kmag, weights))
        for block, w, dist2, block_backward in blocks:
            # The sums run per part: einsum's buffered sums round with the
            # length of the factor axis.
            if gw is not None:
                for part in block.parts:
                    gw[part.pool] += np.einsum("bn,mbn->m", g, dist2[part.span])
            # A Euclidean block's distances do not depend on its curvature.
            block_want = want if block.sign else want._replace(k=False)
            if not (block_want.x or block_want.y):
                continue
            for part, gu, gv, gkm in block_backward(g if w is None else w[:, None, None] * g,
                                                    block_want):
                if gf is not None:
                    ad.add_cols(gf, part.runs, gu.transpose(1, 0, 2).reshape(b, -1))
                if gp is not None:
                    ad.add_cols(gp, part.runs, gv.transpose(1, 0, 2).reshape(n, -1))
                if gkm is not None:
                    gk[part.pool] += gkm
        for t, grad in zip((feats, protos, kmag, weights), (gf, gp, gk, gw)):
            if grad is not None:
                ad._accum(t, grad)

    return ad._make(out, (feats, protos, kmag, weights), bwd)


def _measure(fv, pv, space: MixedSpace, kmag, weights, pairs=None, want=None):
    """The distance routine and the kernel's one walk: the (R, N) squared
    product distances between the lifts of the rows of ``fv`` (R, D) and
    ``pv`` (N, D), weighted per factor by ``weights`` (matrix form only), or
    with the boolean (R, N) mask ``pairs`` the listed entries only, zero
    elsewhere.

    Every part is lifted once, before the walk: both operands, or the rows
    once when ``pv`` is ``fv``, with :func:`_self_operand` as the right
    operand; a block joins its parts' squared norms, magnitudes and weights
    once. A recorded call (``want``, a :class:`_Wanted`) is one tile and
    also returns the blocks :func:`_node` needs. A forward-only call walks
    tiles of ``_TILE`` rows by ``_TILE`` columns and skips a tile with no
    listed pair. In each tile every part writes its Gram product into its
    rows of its block's Gram array, and each block runs the core once: on
    every entry, or under ``pairs`` on the listed entries only. Each part's
    sum is added into the tile, block by block, so every tiling gives the
    same values bit for bit.
    """
    record = want is not None
    blocks = []
    for block in _layout(space, fv.shape[1]):
        k = block.k if kmag is None else kmag[block.pool]
        lifts, x2s, y2s = [], [], []
        for part in block.parts:
            kp = k[part.span]
            x, x2, back_x = _lifted(fv, part.cols, kp, block.sign)
            y, y2, back_y = ((_self_operand(x), x2, back_x) if pv is fv
                             else _lifted(pv, part.cols, kp, block.sign))
            # A lift's backward holds its slices; only a recorded call keeps it.
            lifts.append((x, y) + ((back_x, back_y) if record else ()))
            x2s.append(x2)
            y2s.append(y2)
        x2 = np.concatenate(x2s)
        y2 = x2 if pv is fv else np.concatenate(y2s)
        w = None if weights is None else weights[block.pool]
        keep_k = (bool(block.sign) and want.k) if record else None
        blocks.append((block, k, w, keep_k, lifts, x2, y2))
    out = np.zeros((len(fv), len(pv)))
    if record:
        row_tiles, col_tiles = [(0, len(fv))], [(0, len(pv))]
    else:
        row_tiles, col_tiles = _tiles(len(fv), _TILE), _tiles(len(pv), _TILE)
    nodes = []
    for (r0, r1), (c0, c1) in itertools.product(row_tiles, col_tiles):
        if pairs is None:
            acc, flat = out[r0:r1, c0:c1], None
        else:
            # Flat indices, taken once per tile: a boolean mask would be
            # searched again by every block's gathers and scatters.
            flat = np.flatnonzero(pairs[r0:r1, c0:c1])
            if not len(flat):
                continue
            i, j = np.divmod(flat, c1 - c0)
            i += r0
            j += c0
            acc = np.zeros(len(flat))
        for block, k, w, keep_k, lifts, x2, y2 in blocks:
            gram = _gram(block, lifts, slice(r0, r1), slice(c0, c1))
            if flat is None:
                dist2, core_backward = _core(gram, x2[:, r0:r1, None], y2[:, None, c0:c1], k,
                                             block.sign, keep_k)
            else:
                dist2, core_backward = _core(gram.reshape(len(k), -1)[:, flat], x2[:, i], y2[:, j],
                                             k, block.sign, keep_k)
            if record:
                nodes.append((block, w, dist2 if want.w else None,
                              _block_backward(core_backward, block, k, lifts, out.shape, flat)))
            if w is not None:
                dist2 = w[:, None, None] * dist2
            for part in block.parts:
                acc += dist2[part.span].sum(axis=0)
        if flat is not None:
            out[i, j] = acc
    return out, nodes


def _gram(block, lifts, rows, cols):
    """The (m, R, N) Gram products of a block's lifts on a tile: each part
    writes its batched product into its rows of the block's array."""
    gram = np.empty((len(block.k), rows.stop - rows.start, cols.stop - cols.start))
    for part, (x, y, *_) in zip(block.parts, lifts):
        np.matmul(x[:, rows], y[:, cols].transpose(0, 2, 1), out=gram[part.span])
    return gram


def sq_dist_matrix(feats, protos, space: MixedSpace, kmag=None, weights=None,
                   pairs=None):
    """(B, N) squared product distances between the lifts of the rows of
    ``feats`` (B, D) and ``protos`` (N, D): the kernel's one op. Each input
    is a Tensor or a plain array.

    ``kmag`` optionally supplies the curvature magnitudes, indexed by pool
    index (otherwise |curvature| of each factor is used); ``weights``
    optionally supplies per-factor weights with the same indexing. With the
    boolean (B, N) mask ``pairs`` only the listed entries go through the
    distance formula and its backward, and the others are zero; values and
    gradients equal those of the unmasked op on the listed entries. A mask
    of another shape, or one given with weights, is rejected.

    Without a Tensor input the result is a plain array, and the routine
    walks tiles (see :func:`_measure`), skipping those that hold no
    listed pair. In a run these calls are evaluation, on up to 1000 test
    rows x 20 classes (16 row tiles) or 413 x 40 (seven), and the
    previous-step model's context, on up to B = 400 buffer rows. On the
    bench's seed-1 runs the context skipped 20 of its 54 tiles on the
    reference stream and 169 of 388 on the 40-class CSV stream, and listed
    42 % and 22 % of the entries of the tiles it walked.
    """
    fv, pv = ad._value(feats), ad._value(protos)
    if pairs is not None and (weights is not None or np.shape(pairs) != (len(fv), len(pv))):
        raise ContractViolation("pairs must be a (B, N) mask, and take no weights")
    want = _wanted(feats, protos, kmag, weights)
    out, blocks = _measure(fv, pv, space, ad._value(kmag), ad._value(weights), pairs, want)
    return out if want is None else _node(out, feats, protos, kmag, weights, want, blocks)


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
