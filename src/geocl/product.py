"""Product of constant-curvature factors over slices of a feature vector.

A factor owns a contiguous (possibly overlapping with other factors) slice
of the backbone feature vector plus a curvature.
The squared product distance, the sum of per-factor squared distances, is
computed by :func:`geocl.diffgeo.sq_dist_matrix`; the product angle is the
plain Euclidean cosine of the concatenated tangents (``geocl.model``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class FactorSpec:
    """One constant-curvature submanifold tied to a coordinate slice.

    ``slice_start``/``slice_end`` are 1-based inclusive feature indices.
    """

    pool_index: int
    slice_start: int
    slice_end: int
    curvature: float

    def __post_init__(self):
        if not (1 <= self.slice_start < self.slice_end):
            raise ConfigurationError(f"bad slice [{self.slice_start}, {self.slice_end}]")

    @property
    def dim(self) -> int:
        return self.slice_end - self.slice_start + 1

    def take(self, feature: np.ndarray) -> np.ndarray:
        """Slice this factor's coordinates out of a feature array."""
        d = np.asarray(feature).shape[-1]
        if self.slice_end > d:
            raise ConfigurationError(
                f"factor {self.pool_index} slice [{self.slice_start}, {self.slice_end}] "
                f"exceeds feature dim {d}"
            )
        return np.asarray(feature, dtype=float)[..., self.slice_start - 1 : self.slice_end]


@dataclass(frozen=True)
class MixedSpace:
    """An ordered product of factors (ordered by pool index)."""

    factors: tuple[FactorSpec, ...]

    def __post_init__(self):
        idx = [f.pool_index for f in self.factors]
        if len(set(idx)) != len(idx):
            raise ConfigurationError("duplicate pool indices in mixed space")
        if list(idx) != sorted(idx):
            object.__setattr__(self, "factors", tuple(sorted(self.factors, key=lambda f: f.pool_index)))

    def __len__(self):
        return len(self.factors)
