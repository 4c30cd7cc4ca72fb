import hashlib
from pathlib import Path

import numpy as np
import pytest

from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.learners.dataset import CLASSES
from landmark_emotion.pipeline import read_manifest
from landmark_emotion.shapes import parse_pts
from landmark_emotion.synth import class_displacement, face_template, synth_dataset


def all_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def test_template_is_valid_68_point_face():
    pts = face_template()
    assert pts.shape == (68, 2)
    left_eye = pts[36:42].mean(axis=0)
    right_eye = pts[42:48].mean(axis=0)
    assert right_eye[0] > left_eye[0]
    assert abs(left_eye[1] - right_eye[1]) < 1e-9
    # every class pattern returns a full displacement field
    for label in CLASSES:
        assert class_displacement(label).shape == (68, 2)
    with pytest.raises(LandmarkEmotionError, match="unknown class label 'Bored'"):
        class_displacement("Bored")


def test_synth_deterministic_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_dataset(a, seed=77, per_class_count=4)
    synth_dataset(b, seed=77, per_class_count=4)
    assert all_bytes(a) == all_bytes(b)
    c = tmp_path / "c"
    synth_dataset(c, seed=78, per_class_count=4)
    assert all_bytes(a) != all_bytes(c)


def test_synth_counts_and_splits(tmp_path):
    manifest_path = synth_dataset(tmp_path / "d", seed=1, per_class_count=10)
    manifest = read_manifest(manifest_path)
    assert len(manifest.entries) == 70
    for label in CLASSES:
        rows = [e for e in manifest.entries if e.label == label]
        assert len(rows) == 10
        splits = [e.split for e in rows]
        assert splits.count("train") == 6
        assert splits.count("validate") == 2
        assert splits.count("test") == 2


def test_default_synth_bytes_pinned(tmp_path):
    """The bench ``gb_shape`` inputs (seed 7, 30 per class), hashed as ``bench/run.py`` hashes a set-up."""
    synth_dataset(tmp_path / "data", seed=7, per_class_count=30)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(tmp_path)).encode("utf-8") + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "a03ed6306df76f2c51b4ff47e69d735d91ab255dcd6898ca58109900871fd3b6"


def test_synth_pts_roundtrip(tmp_path):
    manifest_path = synth_dataset(tmp_path / "e", seed=5, per_class_count=2)
    manifest = read_manifest(manifest_path)
    for entry in manifest.entries:
        lm = parse_pts((manifest_path.parent / entry.pts_path).read_text())
        assert lm.point_count == 68
        assert np.all(np.isfinite(lm.points))


def test_synth_rejects_bad_count(tmp_path):
    with pytest.raises(LandmarkEmotionError, match="per-class count must be at least 1, got 0"):
        synth_dataset(tmp_path, seed=0, per_class_count=0)
