"""Feature vector layout: blocks, pair enumeration, digests.

A FeatureSpec records which extractor produced each coordinate of a feature
vector.  Coordinate k of a distances block is the k-th pair of
``pair_enumeration(point_count)``, the lexicographic order of all C(n, 2)
unordered landmark pairs.  ``pipeline.build_feature_spec`` assembles the
spec of a run.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import LandmarkEmotionError


def pair_enumeration(point_count: int) -> np.ndarray:
    """All unordered landmark pairs (i, j), i < j, in lexicographic order."""
    if point_count < 2:
        raise LandmarkEmotionError("pair enumeration needs at least 2 points")
    i, j = np.triu_indices(point_count, k=1)
    pairs = np.column_stack([i, j]).astype(np.int64)
    pairs.flags.writeable = False
    return pairs


@dataclass(frozen=True)
class FeatureBlock:
    """One extractor's contiguous slice of a feature vector."""

    extractor: str
    dimension: int
    # extractor-specific layout parameters, e.g. point_count or bank geometry
    params: tuple[tuple[str, object], ...] = ()

    def describe(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.extractor} dim={self.dimension}" + (f" {params}" if params else "")


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered feature blocks; each block is one contiguous slice of the vector."""

    blocks: tuple[FeatureBlock, ...]

    @property
    def total_dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def block_offset(self, extractor: str) -> tuple[int, FeatureBlock]:
        """Start offset and block for the first block of the given extractor."""
        offset = 0
        for b in self.blocks:
            if b.extractor == extractor:
                return offset, b
            offset += b.dimension
        raise KeyError(f"no {extractor!r} block in this spec")

    def to_text(self) -> str:
        """Canonical structured-text serialization (also the digest input)."""
        lines = [f"feature-spec v1 total={self.total_dimension}"]
        for b in self.blocks:
            lines.append("block " + b.describe())
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()
