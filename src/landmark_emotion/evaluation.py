"""Confusion matrices, accuracy arithmetic, and the feature-influence report."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LandmarkEmotionError
from .features.spec import FeatureSpec, pair_enumeration
from .learners.dataset import CLASSES, label_index
from .learners.gb import GBModel, gb_influence


@dataclass(frozen=True)
class ConfusionMatrix:
    """7x7 counts; rows are truth, columns are the estimate, fixed class order."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(CLASSES)
        if counts.shape != (k, k):
            raise LandmarkEmotionError(f"confusion matrix must be {k}x{k}, got {counts.shape}")
        if np.any(counts < 0):
            raise LandmarkEmotionError("confusion counts must be non-negative")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_text(self) -> str:
        """Plain-text table: truth rows, estimate columns, fixed class order."""
        width = max(8, max(len(c) for c in CLASSES) + 1)
        header = "Truth\\Estimate".ljust(15) + "".join(c.rjust(width) for c in CLASSES)
        lines = [header]
        for i, name in enumerate(CLASSES):
            lines.append(name.ljust(15) + "".join(str(int(v)).rjust(width) for v in self.counts[i]))
        return "\n".join(lines) + "\n"

    def to_machine_text(self) -> str:
        """Machine-readable variant: one `truth estimate count` triple per line."""
        lines = ["confusion-matrix v1 classes=" + ",".join(CLASSES)]
        for i in range(len(CLASSES)):
            for j in range(len(CLASSES)):
                lines.append(f"{CLASSES[i]}\t{CLASSES[j]}\t{int(self.counts[i, j])}")
        return "\n".join(lines) + "\n"


def _to_indices(labels: Sequence[str | int]) -> np.ndarray:
    out = np.empty(len(labels), dtype=np.int64)
    for i, lbl in enumerate(labels):
        idx = label_index(lbl) if isinstance(lbl, str) else int(lbl)
        if not 0 <= idx < len(CLASSES):
            raise LandmarkEmotionError(f"class index {idx} out of range")
        out[i] = idx
    return out


def confusion(predicted: Sequence[str | int], truth: Sequence[str | int]) -> ConfusionMatrix:
    """Count (truth, predicted) pairs into the fixed-order matrix."""
    if len(predicted) != len(truth):
        raise LandmarkEmotionError(
            f"{len(predicted)} predictions vs {len(truth)} truth labels"
        )
    if len(predicted) == 0:
        raise LandmarkEmotionError("cannot build a confusion matrix from zero samples")
    p = _to_indices(predicted)
    t = _to_indices(truth)
    k = len(CLASSES)
    counts = np.bincount(t * k + p, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(counts=counts)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """trace / total."""
    if cm.total == 0:
        raise LandmarkEmotionError("empty confusion matrix has no accuracy")
    return float(np.trace(cm.counts)) / cm.total


def per_class_accuracy(cm: ConfusionMatrix) -> tuple[float | None, ...]:
    """Recall per truth row; None where a class has no samples."""
    if cm.total == 0:
        raise LandmarkEmotionError("empty confusion matrix has no accuracy")
    out = []
    for i in range(len(CLASSES)):
        row = cm.counts[i].sum()
        out.append(float(cm.counts[i, i]) / row if row > 0 else None)
    return tuple(out)


def accuracy_line(cm: ConfusionMatrix, split: str = "test") -> str:
    """One-line summary with the percentage rendered to one decimal place."""
    return f"{split} accuracy: {100.0 * overall_accuracy(cm):.1f}% ({int(np.trace(cm.counts))}/{cm.total})"


def per_class_text(cm: ConfusionMatrix) -> str:
    parts = []
    for name, acc in zip(CLASSES, per_class_accuracy(cm)):
        parts.append(f"{name}: {'n/a' if acc is None else f'{100.0 * acc:.1f}%'}")
    return "per-class recall: " + ", ".join(parts)


@dataclass(frozen=True)
class InfluenceReport:
    """Distance-feature influence ranked non-increasing, pairs as (i, j) landmarks."""

    pairs: tuple[tuple[int, int], ...]
    shares: tuple[float, ...]
    distance_share: float  # influence mass carried by the whole distance block
    other_share: float  # mass attributed to non-distance blocks

    def to_text(self) -> str:
        lines = [
            f"influence report: distance block {100 * self.distance_share:.1f}%, "
            f"other blocks {100 * self.other_share:.1f}%"
        ]
        for rank, (pair, share) in enumerate(zip(self.pairs, self.shares), start=1):
            lines.append(f"{rank}. landmarks ({pair[0]}, {pair[1]}) share {share:.6f}")
        return "\n".join(lines) + "\n"


def influence_report(model: GBModel, spec: FeatureSpec, top_k: int = 20) -> InfluenceReport:
    """Rank landmark pairs by the boosted model's split-gain influence."""
    try:
        offset, block = spec.block_offset("distances")
    except KeyError:
        raise LandmarkEmotionError("influence report needs a distance block in the feature spec") from None
    if spec.total_dimension != model.dimension:
        raise LandmarkEmotionError(
            f"spec dimension {spec.total_dimension} does not match model dimension {model.dimension}"
        )
    landmark_pairs = pair_enumeration(dict(block.params)["point_count"])
    influence = gb_influence(model)
    dist = influence[offset : offset + block.dimension]
    other = float(influence.sum() - dist.sum())

    # sort by share descending; ties resolve to the lexicographically first pair
    order = np.lexsort((landmark_pairs[:, 1], landmark_pairs[:, 0], -dist))
    order = order[: max(0, top_k)]
    pairs = tuple((int(landmark_pairs[i, 0]), int(landmark_pairs[i, 1])) for i in order)
    shares = tuple(float(dist[i]) for i in order)
    return InfluenceReport(
        pairs=pairs,
        shares=shares,
        distance_share=float(dist.sum()),
        other_share=other,
    )
