"""Product of constant-curvature factors over slices of a feature vector.

A factor owns a contiguous (possibly overlapping with other factors) slice
of the backbone feature vector plus a curvature; its ``columns`` are the
one map from a factor to feature columns. A ``MixedSpace`` is an ordered
product of factors; the geometry search's candidate pool is one too.
The squared product distance, the sum of per-factor squared distances, is
computed by :func:`geocl.diffgeo.sq_dist_matrix`; the product angle is the
plain Euclidean cosine of the concatenated tangents (``geocl.model``), the
feature gathered at ``MixedSpace.columns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @property
    def columns(self) -> np.ndarray:
        """This factor's 0-based feature columns."""
        return np.arange(self.slice_start - 1, self.slice_end)


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

    @property
    def size(self) -> int:
        return len(self.factors)

    def check_width(self, width: int) -> None:
        """Reject a factor whose slice runs past a feature of ``width`` columns."""
        for f in self.factors:
            if f.slice_end > width:
                raise ConfigurationError(
                    f"factor {f.pool_index} slice [{f.slice_start}, {f.slice_end}] "
                    f"exceeds feature dim {width}")

    @cached_property
    def columns(self) -> np.ndarray:
        """Every factor's feature columns, factor after factor (read-only)."""
        cols = np.concatenate([f.columns for f in self.factors])
        cols.flags.writeable = False
        return cols
