import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landmark_emotion.shapes import LandmarkSet


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def outputs_under_blas_threads(script):
    """Standard output of ``python -c script`` run under 1 and under 2 BLAS threads."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.strip())
    return outputs


def make_face(rng=None, jitter=0.0):
    """A plausible 68-point face; optionally jittered."""
    from landmark_emotion.synth import face_template

    pts = face_template()
    if rng is not None and jitter > 0:
        pts = pts + rng.normal(0.0, jitter, size=pts.shape)
    return LandmarkSet(pts)


def face_with_anchors(left_eye, right_eye, mouth_center):
    """68 points with exact eye centers and mouth-corner midpoint.

    Eye contours are zero-area hexagons averaging to the requested centers;
    mouth corners 48/54 straddle the requested mouth center.  Remaining
    points fill a loose grid so the shape is non-degenerate.
    """
    left_eye = np.asarray(left_eye, dtype=float)
    right_eye = np.asarray(right_eye, dtype=float)
    mouth_center = np.asarray(mouth_center, dtype=float)
    pts = np.zeros((68, 2))
    spread = max(np.linalg.norm(right_eye - left_eye), 1.0)
    for i in range(36):
        pts[i] = left_eye + spread * np.array([(i % 9) * 0.2 - 0.8, (i // 9) * 0.25 + 0.5])
    hexagon = spread * 0.05 * np.array(
        [[-2, 0], [-1, -1], [1, -1], [2, 0], [1, 1], [-1, 1]], dtype=float
    )
    pts[36:42] = left_eye + hexagon
    pts[42:48] = right_eye + hexagon
    offset = spread * 0.15 * np.array([1.0, 0.0])
    pts[48] = mouth_center - offset
    pts[54] = mouth_center + offset
    lip = [49, 50, 51, 52, 53, 55, 56, 57, 58, 59]
    for k, i in enumerate(lip):
        pts[i] = mouth_center + spread * 0.06 * np.array([k - 4.5, 1.0 + (k % 3) * 0.3])
    for k, i in enumerate(range(60, 68)):
        pts[i] = mouth_center + spread * 0.04 * np.array([k - 3.5, -0.5])
    return LandmarkSet(pts)


def random_similarity(rng):
    """Random (rotation, scale, translation) tuple for invariance checks."""
    angle = rng.uniform(-np.pi, np.pi)
    scale = rng.uniform(0.2, 5.0)
    translation = rng.uniform(-100.0, 100.0, size=2)
    return angle, scale, translation


def apply_similarity(points, angle, scale, translation):
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return scale * points @ rot.T + translation
