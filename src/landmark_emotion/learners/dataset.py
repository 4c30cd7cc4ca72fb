"""Labeled feature datasets over the fixed 7-emotion class order."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError

# Fixed class order used everywhere: confusion-matrix axes, tie-breaking,
# reports.  Index into this tuple is the integer label.
CLASSES = ("Angry", "Disgust", "Fear", "Happy", "Neutral", "Sad", "Surprise")
CLASS_INDEX = {name: idx for idx, name in enumerate(CLASSES)}
UNLABELED = -1


def label_index(label: str) -> int:
    try:
        return CLASS_INDEX[label]
    except KeyError:
        raise DimensionMismatchError(f"unknown class label {label!r}; expected one of {CLASSES}") from None


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix and integer labels, one row per sample.

    ``y`` entries are indices into CLASSES, or UNLABELED (-1) for samples
    awaiting prediction.  ``ids`` keeps manifest sample identifiers so split
    hygiene stays auditable.
    """

    X: np.ndarray
    y: np.ndarray
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatchError(f"y shape {y.shape} does not match {X.shape[0]} rows")
        if not np.all(np.isfinite(X)):
            raise DimensionMismatchError("feature values must be finite")
        bad = (y != UNLABELED) & ((y < 0) | (y >= len(CLASSES)))
        if np.any(bad):
            raise DimensionMismatchError(f"labels out of range: {np.unique(y[bad])}")
        if self.ids and len(self.ids) != X.shape[0]:
            raise DimensionMismatchError("ids length does not match row count")
        X = X.copy()
        X.flags.writeable = False
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ids", tuple(self.ids))

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def classes_present(self) -> tuple[int, ...]:
        return tuple(sorted(int(c) for c in np.unique(self.y) if c != UNLABELED))

    def require_labeled(self) -> None:
        if np.any(self.y == UNLABELED):
            raise DimensionMismatchError("dataset contains unlabeled samples")


def canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row order independent of how the caller shuffled the samples.

    A stable sort of the rows, compared at their first differing column,
    then on ``y``: the order ``np.lexsort`` gives with one key per column,
    without building one sort key per column.
    """
    rows = list(X)
    labels = y.tolist()

    def compare(i: int, j: int) -> int:
        differ = rows[i] != rows[j]
        col = int(differ.argmax())
        if differ[col]:
            return -1 if rows[i][col] < rows[j][col] else 1
        return (labels[i] > labels[j]) - (labels[i] < labels[j])

    return np.array(sorted(range(len(labels)), key=functools.cmp_to_key(compare)), dtype=np.intp)
