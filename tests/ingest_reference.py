"""Face-by-face ingestion: the reference the stacked ``load_dataset`` must match bit for bit.

``load_dataset`` once read, normalised, up-righted and measured one entry at
a time, with ``scipy.spatial.distance.pdist`` for the distances.  This loop
does the same for the two shape families, calling each shape step on one
face, so ``tests/test_pipeline.py`` can compare feature bytes and skipped
entries against the stacked pipeline.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist

from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.pipeline import SPLITS, read_manifest, read_utf8
from landmark_emotion.shapes import normalize_size, parse_pts, upright


def reference_upright(manifest_path: str | Path) -> tuple[dict, list[tuple[str, str]]]:
    """Per split, {sample id: up-righted (68, 2) points} of its usable entries,
    and (sample id, message) for each skipped entry, in manifest order."""
    manifest_path = Path(manifest_path)
    shapes: dict[str, dict[str, np.ndarray]] = {s: {} for s in SPLITS}
    errors = []
    for entry in read_manifest(manifest_path).entries:
        if entry.absent:
            continue
        try:
            landmarks = parse_pts(read_utf8(manifest_path.parent / entry.pts_path))
            shapes[entry.split][entry.sample_id] = upright(normalize_size(landmarks.points))
        except (LandmarkEmotionError, OSError) as exc:
            errors.append((entry.sample_id, str(exc)))
    return shapes, errors


def reference_features(shape: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The ``distances`` and ``axis`` features of one up-righted face."""
    return np.concatenate([pdist(shape), (shape - mean).ravel()])
