"""Seeded grayscale face images drawn from 68-point landmark sets.

The picture is a smooth background (a low-frequency shading field with
light Gaussian noise) with dark strokes along the landmark contours: jaw,
brows, nose, eyes and lips.  Strokes sit at the landmark coordinates in
image pixels, so the image and its `.pts` file stay aligned.  Rendering is
a pure function of the points and the seed, so the PGM bytes repeat
exactly for a given seed.
"""
from __future__ import annotations

import numpy as np

from landmark_emotion.features.image import GrayImage, write_pgm

IMAGE_SIZE = 240
STROKE_WIDTH = 1.6
STROKE_DEPTH = 0.55
NOISE_SIGMA = 0.015

# (first point, last point, closed) of each contour of the 68-point layout
CONTOURS = (
    (0, 16, False),  # jaw
    (17, 21, False),  # left brow
    (22, 26, False),  # right brow
    (27, 30, False),  # nose bridge
    (31, 35, False),  # nostrils
    (36, 41, True),  # left eye
    (42, 47, True),  # right eye
    (48, 59, True),  # outer lip
    (60, 67, True),  # inner lip
)


def _segments(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    starts, ends = [], []
    for first, last, closed in CONTOURS:
        idx = list(range(first, last + 1))
        if closed:
            idx.append(first)
        starts.extend(idx[:-1])
        ends.extend(idx[1:])
    return points[starts], points[ends]


def render_face(points: np.ndarray, rng: np.random.Generator, size: int = IMAGE_SIZE) -> GrayImage:
    """Image of one face; ``points`` is the (68, 2) landmark array in pixels."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    background = 0.65 + 0.08 * np.sin(xs / 41.0) * np.cos(ys / 57.0) + 0.05 * np.sin((xs + ys) / 67.0)
    # squared distance from every pixel to the nearest contour segment,
    # evaluated only in each segment's padded bounding box
    d2 = np.full((size, size), np.inf)
    reach = 5.0 * STROKE_WIDTH
    a, b = _segments(np.asarray(points, dtype=np.float64))
    for (ax, ay), (bx, by) in zip(a, b):
        x0, x1 = (int(np.clip(v, 0, size)) for v in (min(ax, bx) - reach, max(ax, bx) + reach + 1))
        y0, y1 = (int(np.clip(v, 0, size)) for v in (min(ay, by) - reach, max(ay, by) + reach + 1))
        if x0 >= x1 or y0 >= y1:
            continue
        px, py = xs[y0:y1, x0:x1] - ax, ys[y0:y1, x0:x1] - ay
        dx, dy = bx - ax, by - ay
        t = np.clip((px * dx + py * dy) / max(dx * dx + dy * dy, 1e-12), 0.0, 1.0)
        window = d2[y0:y1, x0:x1]
        np.minimum(window, (px - t * dx) ** 2 + (py - t * dy) ** 2, out=window)
    stroke = STROKE_DEPTH * np.exp(-d2 / (2.0 * STROKE_WIDTH**2))
    noise = rng.normal(0.0, NOISE_SIGMA, size=(size, size))
    return GrayImage(np.clip(background * (1.0 - stroke) + noise, 0.0, 1.0))


def render_pgm(points: np.ndarray, seed: int) -> bytes:
    """PGM bytes of ``render_face`` with its own generator seeded by ``seed``."""
    return write_pgm(render_face(points, np.random.default_rng(seed)))
