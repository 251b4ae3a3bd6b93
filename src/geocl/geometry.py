"""Closed-form operations on a single constant-curvature space.

Three models share one set of formulas via a sign dispatch on the curvature:
the Poincare ball (negative curvature), the projected sphere (positive
curvature), and a dedicated Euclidean branch for exactly-zero curvature
(where the unified formulas would hit 0/0).

All array functions are vectorized over leading axes; vectors live on the
last axis. Curvature is a plain float here; the trainable parameterization
lives in the autodiff layer.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateAngleError, NumericalDomainError

# Ball boundary margin: hyperbolic points are kept at radius <= (1-BALL_EPS)/sqrt(|K|).
BALL_EPS = 1e-5
# Smallest allowed |K| for a trainable curvature.
CURVATURE_FLOOR = 1e-4
# Below this, a vector norm is treated as exactly zero.
ZERO_TOL = 1e-12
# Spherical exponential maps cap the tan argument short of pi/2: the
# analogue of the ball margin, keeping lifts inside the injectivity radius.
TAN_CAP = 1.47


def _sqnorm(x, keepdims=True):
    return np.sum(x * x, axis=-1, keepdims=keepdims)


def _norm(x, keepdims=True):
    return np.sqrt(_sqnorm(x, keepdims=keepdims))


def tan_k(z, curvature):
    """tan for non-negative curvature, tanh for negative curvature."""
    return np.tan(z) if curvature >= 0 else np.tanh(z)


def arctan_k(z, curvature):
    """Inverse of :func:`tan_k` with the same sign dispatch."""
    if curvature >= 0:
        return np.arctan(z)
    # Guard against rounding pushing the argument onto the branch point.
    return np.arctanh(np.clip(z, -1.0 + 1e-15, 1.0 - 1e-15))


def conformal_factor(u, curvature):
    """Metric scaling factor at ``u`` (equals 2 at the origin)."""
    return 2.0 / (1.0 + curvature * _sqnorm(u))


def project_to_domain(x, curvature):
    """Rescale hyperbolic points back inside the ball; identity otherwise."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericalDomainError("non-finite coordinates")
    if curvature >= 0:
        return x
    max_radius = (1.0 - BALL_EPS) / np.sqrt(-curvature)
    norm = _norm(x)
    scale = np.where(norm >= max_radius, max_radius / np.maximum(norm, ZERO_TOL), 1.0)
    return x * scale


def mobius_add(x, y, curvature):
    """Gyrovector addition x (+) y; reduces to x + y at zero curvature."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if curvature == 0.0:
        return x + y
    K = curvature
    xy = np.sum(x * y, axis=-1, keepdims=True)
    x2 = _sqnorm(x)
    y2 = _sqnorm(y)
    num = (1.0 - 2.0 * K * xy - K * y2) * x + (1.0 + K * x2) * y
    den = 1.0 - 2.0 * K * xy + K * K * x2 * y2
    if np.any(np.abs(den) < ZERO_TOL):
        raise NumericalDomainError("Mobius addition denominator vanished")
    return project_to_domain(num / den, curvature)


def exp_map(u, q, curvature):
    """Map tangent vector ``q`` at ``u`` onto the manifold; exp_u(0) = u."""
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    if curvature == 0.0:
        return u + q
    n = _norm(q)
    small = n < ZERO_TOL
    n_safe = np.where(small, 1.0, n)
    sk = np.sqrt(abs(curvature))
    lam = conformal_factor(u, curvature)
    arg = sk * lam * n_safe / 2.0
    if curvature > 0:
        arg = np.minimum(arg, TAN_CAP)
    step = tan_k(arg, curvature) * q / (sk * n_safe)
    out = mobius_add(u, step, curvature)
    return np.where(small, np.broadcast_to(u, out.shape), out)


def log_map(u, x, curvature):
    """Inverse of :func:`exp_map`; log_u(u) = 0."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    if curvature == 0.0:
        return x - u
    v = mobius_add(-u, x, curvature)
    n = _norm(v)
    small = n < ZERO_TOL
    n_safe = np.where(small, 1.0, n)
    sk = np.sqrt(abs(curvature))
    lam = conformal_factor(u, curvature)
    out = (2.0 / (sk * lam)) * arctan_k(sk * n_safe, curvature) * v / n_safe
    return np.where(small, 0.0, out)


def distance(x, y, curvature, keepdims=False):
    """Geodesic distance; the zero-curvature branch is 2*||x - y||."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if curvature == 0.0:
        return 2.0 * _norm(x - y, keepdims=keepdims)
    sk = np.sqrt(abs(curvature))
    n = _norm(mobius_add(-x, y, curvature), keepdims=keepdims)
    return (2.0 / sk) * arctan_k(sk * n, curvature)


def cosine_at_origin(q, s):
    """Cosine of the angle between two origin tangents (curvature-free)."""
    q = np.asarray(q, dtype=float)
    s = np.asarray(s, dtype=float)
    nq = _norm(q, keepdims=False)
    ns = _norm(s, keepdims=False)
    if np.any(nq < ZERO_TOL) or np.any(ns < ZERO_TOL):
        raise DegenerateAngleError("zero-norm tangent vector")
    return np.sum(q * s, axis=-1) / (nq * ns)
