"""Seeded synthetic landmark dataset for desk-scale experiments.

Shapes start from a stylized neutral 68-point face template and get a
class-specific displacement pattern (brow raises, mouth-corner pulls, jaw
drops and so on, loosely after the facial action units that characterize
each emotion), plus Gaussian jitter and a random similarity transform.
Output is a directory of `.pts` files and a manifest CSV with a 60/20/20
train/validate/test split.  Everything is a pure function of the seed, so
repeated runs are byte-identical.
"""
from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import LandmarkEmotionError
from .learners.dataset import CLASSES
from .pipeline import DatasetManifest, ManifestEntry, write_manifest
from .shapes import LandmarkSet, write_pts

JITTER_SIGMA = 1.1


def face_template() -> np.ndarray:
    """Neutral 68-point face in a 200x200 frame, y growing downward."""
    pts = np.zeros((68, 2))
    # jaw 0-16: ellipse arc ear-chin-ear
    for i in range(17):
        phi = np.pi * i / 16.0
        pts[i] = (100.0 - 55.0 * np.cos(phi), 85.0 + 65.0 * np.sin(phi))
    # brows 17-21 and 22-26, gentle arches
    for k in range(5):
        lift = 4.0 * np.sin(np.pi * k / 4.0)
        pts[17 + k] = (55.0 + 8.75 * k, 62.0 - lift)
        pts[22 + k] = (110.0 + 8.75 * k, 62.0 - lift)
    # nose bridge 27-30 and nostril line 31-35
    for k in range(4):
        pts[27 + k] = (100.0, 75.0 + 10.0 * k)
    pts[31:36] = [(88, 115), (94, 117), (100, 119), (106, 117), (112, 115)]
    # eyes 36-41 (left) and 42-47 (right), hexagonal contours
    pts[36:42] = [(62, 80), (67, 76), (77, 76), (83, 80), (77, 84), (67, 84)]
    pts[42:48] = [(117, 80), (123, 76), (133, 76), (138, 80), (133, 84), (123, 84)]
    # outer lip 48-59, inner lip 60-67
    pts[48:60] = [
        (80, 140), (87, 136), (94, 134), (100, 135), (106, 134), (113, 136),
        (120, 140), (113, 146), (106, 149), (100, 150), (94, 149), (87, 146),
    ]
    pts[60:68] = [
        (85, 140), (93, 138), (100, 138), (107, 138),
        (115, 140), (107, 142), (100, 142), (93, 142),
    ]
    return pts


def _shift(disp: np.ndarray, indices, dx: float = 0.0, dy: float = 0.0) -> None:
    for i in np.atleast_1d(indices):
        disp[i, 0] += dx
        disp[i, 1] += dy


def class_displacement(label: str) -> np.ndarray:
    """Displacement pattern (pixels in the template frame) for one emotion."""
    d = np.zeros((68, 2))
    brows = range(17, 27)
    upper_lids = (37, 38, 43, 44)
    lower_lids = (40, 41, 46, 47)
    mouth_corners = (48, 54, 60, 64)
    lower_outer_lip = (55, 56, 57, 58, 59)
    lower_inner_lip = (65, 66, 67)
    upper_lip = (49, 50, 51, 52, 53)

    if label == "Neutral":
        pass
    elif label == "Happy":
        # cheek raiser + lip corner puller: corners up and out, lower lids up
        _shift(d, (48, 60), dx=-5.0, dy=-6.0)
        _shift(d, (54, 64), dx=5.0, dy=-6.0)
        _shift(d, (49, 53), dy=-3.0)
        _shift(d, lower_lids, dy=-2.5)
    elif label == "Sad":
        # inner brow raiser + brow lowerer + lip corner depresser
        _shift(d, (20, 21, 22, 23), dy=-5.0)
        _shift(d, (17, 18, 25, 26), dy=2.5)
        _shift(d, (48, 60), dx=1.0, dy=6.0)
        _shift(d, (54, 64), dx=-1.0, dy=6.0)
        _shift(d, (57,), dy=2.0)
    elif label == "Surprise":
        # brows and upper lids up, jaw drop opens the mouth
        _shift(d, brows, dy=-8.0)
        _shift(d, upper_lids, dy=-3.5)
        _shift(d, lower_lids, dy=3.5)
        _shift(d, lower_outer_lip, dy=11.0)
        _shift(d, lower_inner_lip, dy=9.0)
        _shift(d, (6, 7, 8, 9, 10), dy=8.0)
        _shift(d, (48, 54, 60, 64), dy=4.0)
    elif label == "Angry":
        # brow lowerer drawn inward, lid tightener, pressed lips
        _shift(d, brows, dy=5.5)
        _shift(d, (20, 21), dx=3.0, dy=2.0)
        _shift(d, (22, 23), dx=-3.0, dy=2.0)
        _shift(d, upper_lids, dy=1.5)
        _shift(d, upper_lip, dy=2.0)
        _shift(d, (57, 58, 59, 55, 56), dy=-3.0)
        _shift(d, (48, 60), dx=2.0)
        _shift(d, (54, 64), dx=-2.0)
    elif label == "Fear":
        # raised brows pulled together, widened eyes, horizontally stretched mouth
        _shift(d, brows, dy=-5.0)
        _shift(d, (20, 21), dx=3.0)
        _shift(d, (22, 23), dx=-3.0)
        _shift(d, upper_lids, dy=-2.5)
        _shift(d, lower_lids, dy=2.5)
        _shift(d, (48, 60), dx=-8.0, dy=1.0)
        _shift(d, (54, 64), dx=8.0, dy=1.0)
        _shift(d, (49, 53, 55, 59), dx=0.0, dy=1.0)
        _shift(d, lower_outer_lip, dy=3.0)
    elif label == "Disgust":
        # nose wrinkler: nostrils and upper lip up, brow slightly down
        _shift(d, range(31, 36), dy=-6.0)
        _shift(d, (27, 28, 29, 30), dy=-2.0)
        _shift(d, upper_lip, dy=-6.0)
        _shift(d, (61, 62, 63), dy=-5.0)
        _shift(d, brows, dy=4.0)
        _shift(d, (17, 21, 22, 26), dy=1.5)
    else:
        raise LandmarkEmotionError(f"unknown class label {label!r}")
    return d


def _random_similarity(rng: np.random.Generator) -> tuple[float, float, np.ndarray]:
    angle = rng.uniform(-0.25, 0.25)
    scale = rng.uniform(0.8, 1.25)
    translation = rng.uniform(-20.0, 20.0, size=2)
    return angle, scale, translation


@lru_cache(maxsize=None)
def _class_shape(label: str) -> np.ndarray:
    """The template plus the class displacement, built once per class; read-only."""
    pts = face_template() + class_displacement(label)
    pts.flags.writeable = False
    return pts


def synth_shape(label: str, rng: np.random.Generator) -> LandmarkSet:
    """One jittered, randomly placed face of the given class."""
    pts = _class_shape(label)
    pts = pts + rng.normal(0.0, JITTER_SIGMA, size=pts.shape)
    angle, scale, translation = _random_similarity(rng)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    center = pts.mean(axis=0)
    pts = (pts - center) @ rot.T * scale + center + translation
    return LandmarkSet(pts)


def _split_sizes(per_class: int) -> tuple[int, int, int]:
    n_train = max(1, (per_class * 3) // 5)
    n_val = (per_class * 1) // 5
    n_test = per_class - n_train - n_val
    return n_train, n_val, max(0, n_test)


def synth_dataset(out_dir: str | Path, seed: int, per_class_count: int) -> Path:
    """Write `.pts` files plus `manifest.csv` under ``out_dir``; returns the manifest path."""
    if per_class_count < 1:
        raise LandmarkEmotionError(f"per-class count must be at least 1, got {per_class_count}")
    if seed < 0:
        raise LandmarkEmotionError(f"seed must be at least 0, got {seed}")
    out_dir = Path(out_dir)
    pts_dir = out_dir / "pts"
    pts_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    entries = []
    for label in CLASSES:
        n_train, n_val, _ = _split_sizes(per_class_count)
        for idx in range(per_class_count):
            shape = synth_shape(label, rng)
            rel_path = f"pts/{label}_{idx:03d}.pts"
            (out_dir / rel_path).write_text(write_pts(shape), encoding="utf-8")
            split = "train" if idx < n_train else ("validate" if idx < n_train + n_val else "test")
            entries.append(
                ManifestEntry(
                    sample_id=f"{label}_{idx:03d}",
                    pts_path=rel_path,
                    image_path="",
                    label=label,
                    split=split,
                )
            )
    manifest = DatasetManifest(entries=tuple(entries))
    manifest_path = out_dir / "manifest.csv"
    manifest_path.write_text(write_manifest(manifest), encoding="utf-8")
    return manifest_path
