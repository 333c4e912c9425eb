"""Preprocessing cost accounting (paper Sec. VIII-C, Fig. 18).

The paper splits preprocessing into the matrix-format creation any
homogeneous accelerator pays anyway, and the *HotTiles overhead*: the
matrix scan, the modeling + partitioning, and the format generation for
one additional worker type.  Fig. 18 reports the overhead at ~73% of total
preprocessing, i.e. roughly 4x a homogeneous pipeline, amortized over many
SpMM iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PreprocessCost"]


@dataclass(frozen=True)
class PreprocessCost:
    """Wall-clock stage timings of one preprocessing run.

    The homogeneous baseline is only timed for the Fig. 18 accounting
    (:meth:`repro.pipeline.preprocess.HotTilesPreprocessor.baseline_cost`);
    the overhead properties below need it.
    """

    scan_s: float  #: tiling + per-tile statistics
    partition_s: float  #: per-tile modeling + heuristics + selection
    format_generation_s: float  #: hot and cold formats actually emitted
    homogeneous_format_s: Optional[float] = None  #: baseline single-format generation

    def __post_init__(self) -> None:
        for name in ("scan_s", "partition_s", "format_generation_s", "homogeneous_format_s"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")

    def _baseline_s(self) -> float:
        if self.homogeneous_format_s is None:
            raise ValueError(
                "homogeneous baseline not timed; see HotTilesPreprocessor.baseline_cost"
            )
        return self.homogeneous_format_s

    @property
    def total_s(self) -> float:
        """Total heterogeneous preprocessing time."""
        return self.scan_s + self.partition_s + self.format_generation_s

    @property
    def hottiles_overhead_s(self) -> float:
        """The HotTiles-specific share: everything beyond generating one
        worker type's format (the paper's 'Hot Tiles Overhead')."""
        return max(self.total_s - self._baseline_s(), 0.0)

    @property
    def overhead_fraction(self) -> float:
        """Overhead share of total preprocessing (paper average: ~0.73)."""
        return self.hottiles_overhead_s / self.total_s if self.total_s > 0 else 0.0

    @property
    def slowdown_vs_homogeneous(self) -> float:
        """How many homogeneous format generations the pipeline costs
        (paper: 'about four times the preprocessing overhead')."""
        baseline_s = self._baseline_s()
        if baseline_s <= 0:
            return float("inf") if self.total_s > 0 else 1.0
        return self.total_s / baseline_s
