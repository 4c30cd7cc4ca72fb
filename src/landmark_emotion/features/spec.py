"""Feature vector layout: blocks, pair enumeration, digests, merging.

A FeatureSpec records which extractor produced each coordinate of a feature
vector.  Distance blocks carry the lexicographic enumeration of all C(n, 2)
unordered landmark pairs so a coordinate can be mapped back to its pair.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatchError


def pair_enumeration(point_count: int) -> np.ndarray:
    """All unordered landmark pairs (i, j), i < j, in lexicographic order."""
    if point_count < 2:
        raise DimensionMismatchError("pair enumeration needs at least 2 points")
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
    """Ordered feature blocks plus the landmark-pair index for distance blocks."""

    blocks: tuple[FeatureBlock, ...]
    pair_index: np.ndarray | None = None  # (C(n,2), 2) pairs for the distance block

    def __post_init__(self):
        if not self.blocks:
            raise DimensionMismatchError("a FeatureSpec needs at least one block")

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

    def has_block(self, extractor: str) -> bool:
        return any(b.extractor == extractor for b in self.blocks)

    def to_text(self) -> str:
        """Canonical structured-text serialization (also the digest input)."""
        lines = [f"feature-spec v1 total={self.total_dimension}"]
        for b in self.blocks:
            lines.append("block " + b.describe())
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    @staticmethod
    def distances(point_count: int) -> "FeatureSpec":
        pairs = pair_enumeration(point_count)
        block = FeatureBlock(
            "distances", len(pairs), params=(("point_count", point_count),)
        )
        return FeatureSpec(blocks=(block,), pair_index=pairs)

    @staticmethod
    def axis(point_count: int) -> "FeatureSpec":
        block = FeatureBlock(
            "axis", 2 * point_count, params=(("point_count", point_count),)
        )
        return FeatureSpec(blocks=(block,))


def merge_specs(specs: Sequence[FeatureSpec]) -> FeatureSpec:
    """Concatenate block lists; the pair index of the first distance block wins."""
    blocks: list[FeatureBlock] = []
    pair_index = None
    for s in specs:
        blocks.extend(s.blocks)
        if pair_index is None and s.pair_index is not None:
            pair_index = s.pair_index
    return FeatureSpec(blocks=tuple(blocks), pair_index=pair_index)
