"""Self-check suites behind the `verify` command: geometry properties,
gradient checks, and sampled metric axioms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import diffgeo, geometry, model
from .product import FactorSpec, MixedSpace

CURVATURES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
DIMS = (1, 2, 8, 16)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _draw_points(rng, curvature, dim, n):
    """Sample points safely inside the model's domain."""
    v = rng.normal(0.0, 0.6, (n, dim))
    return geometry.exp_map(np.zeros_like(v), v, curvature)


def check_roundtrip(tolerance=1e-6, samples=10_000, seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    per_combo = max(1, samples // (len(CURVATURES) * len(DIMS)))
    for K in CURVATURES:
        for dim in DIMS:
            u = _draw_points(rng, K, dim, per_combo) * 0.5
            q = rng.normal(0.0, 0.5, (per_combo, dim))
            if K > 0:
                # Stay inside the injectivity radius of the sphere model.
                n = np.linalg.norm(q, axis=-1, keepdims=True)
                cap = 0.45 * np.pi / np.sqrt(K)
                q = np.where(n > cap, q * cap / n, q)
            back = geometry.log_map(u, geometry.exp_map(u, q, K), K)
            rel = np.linalg.norm(back - q, axis=-1) / (1.0 + np.linalg.norm(q, axis=-1))
            worst = max(worst, float(rel.max()))
    return CheckResult("exp/log roundtrip", worst <= tolerance, f"max rel err {worst:.3e}")


def check_metric_axioms(sym_tol=1e-9, tri_tol=1e-7, triples=10_000, seed=1) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_sym = 0.0
    worst_tri = 0.0
    per_k = max(1, triples // len(CURVATURES))
    for K in CURVATURES:
        x = _draw_points(rng, K, 4, per_k)
        y = _draw_points(rng, K, 4, per_k)
        z = _draw_points(rng, K, 4, per_k)
        dxy = geometry.distance(x, y, K)
        dyx = geometry.distance(y, x, K)
        dyz = geometry.distance(y, z, K)
        dxz = geometry.distance(x, z, K)
        worst_sym = max(worst_sym, float(np.abs(dxy - dyx).max()))
        if np.any(dxy < 0) or np.any(dyz < 0):
            return CheckResult("metric axioms", False, "negative distance")
        worst_tri = max(worst_tri, float((dxz - dxy - dyz).max()))
    ok = worst_sym <= sym_tol and worst_tri <= tri_tol
    return CheckResult("metric axioms",
                       ok, f"symmetry {worst_sym:.3e}, triangle excess {worst_tri:.3e}")


def check_euclidean_limit(tolerance=1e-3, seed=2) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for K in (-1e-4, 1e-4):
        x = rng.normal(0.0, 0.5, (200, 6))
        y = rng.normal(0.0, 0.5, (200, 6))
        d = geometry.distance(x, y, K)
        ref = 2.0 * np.linalg.norm(x - y, axis=-1)
        worst = max(worst, float((np.abs(d - ref) / ref).max()))
    return CheckResult("Euclidean limit", worst <= tolerance, f"max rel dev {worst:.3e}")


def check_angle_conformality(tolerance=1e-12, seed=3) -> CheckResult:
    """The engine's tangent cosines on overlapping factors against the
    cosines of each factor's log0(exp0(slice)): equal for every curvature."""
    rng = np.random.default_rng(seed)
    # |coordinate| < 0.2 keeps sqrt|K| |slice| < 0.81 for |K| <= 2, so every
    # lift stays inside the ball margin and the spherical cap.
    v = rng.uniform(-0.2, 0.2, (40, 8))
    zero = np.zeros((len(v), 1))
    worst = 0.0
    for K in CURVATURES:
        space = MixedSpace(tuple(FactorSpec(i, a, b, K) for i, (a, b)
                                 in enumerate(((1, 4), (3, 6), (5, 8), (2, 7), (1, 8)))))
        cos, _ = model.cosine_matrix_np(model.tangent_concat_np(v, space))
        q = np.concatenate([geometry.log_map(zero, geometry.exp_map(zero, v[:, f.columns], K), K)
                            for f in space.factors], axis=-1)
        ref = geometry.cosine_at_origin(q[:, None, :], q[None, :, :])
        worst = max(worst, float(np.abs(cos - ref).max()))
    return CheckResult("origin-angle conformality", worst <= tolerance, f"dev {worst:.3e}")


def _gradcheck_distance(sign: float, trials: int, rng) -> float:
    """Finite differences against the backward of the distance kernel on one
    factor of curvature sign ``sign``, with both points and the curvature
    magnitude trained."""
    space = MixedSpace((FactorSpec(0, 1, 4, sign),))

    def sampler(r):
        return {"v": r.normal(0.0, 0.5, (1, 4)), "w": r.normal(0.0, 0.5, (1, 4)),
                "k": r.uniform(0.3, 1.5, (1,))}

    def loss(t):
        return ad.sum_(diffgeo.sq_dist_matrix(t["v"], t["w"], space, kmag=t["k"]))

    return ad.gradcheck(loss, sampler, trials=trials, rng=rng)


# Two slice widths and interleaved signs: each curved sign's block holds two
# parts, and the factors of a sign are not contiguous, so the blocks gather
# them from across the space.
_GRADCHECK_SPACE = MixedSpace((
    FactorSpec(0, 1, 2, -1.0),
    FactorSpec(1, 3, 5, 1.0),
    FactorSpec(2, 2, 4, -1.0),
    FactorSpec(3, 5, 6, 1.0),
    FactorSpec(4, 1, 3, 0.0),
))


def _gradcheck_product(trials: int, rng) -> float:
    """Finite differences against the backward of the product distance on
    :data:`_GRADCHECK_SPACE`, with features, prototypes, curvatures and
    weights all trained."""
    n = _GRADCHECK_SPACE.size

    def sampler(r):
        return {"u": r.normal(0.0, 0.5, (3, 6)), "v": r.normal(0.0, 0.5, (2, 6)),
                "k": r.uniform(0.3, 1.5, n), "w": r.uniform(0.2, 1.0, n)}

    def loss(t):
        return ad.sum_(diffgeo.sq_dist_matrix(t["u"], t["v"], _GRADCHECK_SPACE,
                                              kmag=t["k"], weights=t["w"]))

    return ad.gradcheck(loss, sampler, trials=trials, rng=rng)


def check_gradients(tolerance=1e-4, trials=20, seed=4) -> CheckResult:
    worst = 0.0
    for i, sign in enumerate((-1.0, 1.0)):
        worst = max(worst, _gradcheck_distance(sign, trials, seed + i))
    worst = max(worst, _gradcheck_product(trials, seed + 2))
    return CheckResult("distance gradients", worst <= tolerance, f"max rel err {worst:.3e}")


def run_all(tolerance_scale: float = 1.0) -> list[CheckResult]:
    """Full verification battery; tolerances scale by ``tolerance_scale``."""
    s = tolerance_scale
    return [
        check_roundtrip(tolerance=1e-6 * s),
        check_metric_axioms(sym_tol=1e-9 * s, tri_tol=1e-7 * s),
        check_euclidean_limit(tolerance=1e-3 * s),
        check_angle_conformality(tolerance=1e-12 * s),
        check_gradients(tolerance=1e-4 * s),
    ]
