"""Grayscale image container, PGM I/O, bilinear warping, and face-crop alignment.

Pixel coordinates are (x, y) with x the column and y the row; ``pixels[y, x]``
addresses a sample.  All resampling clamps source coordinates to the image
border (nearest border pixel for out-of-bounds samples).
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateShapeError, DimensionMismatchError, FormatError, UnsupportedTopologyError
from ..shapes import MOUTH_CORNERS, POINT_COUNT, LandmarkSet, eye_centers

CROP_SIZE = 60
# canonical (x, y) anchor positions in the 60x60 aligned crop
CANONICAL_LEFT_EYE = (18.0, 20.0)
CANONICAL_RIGHT_EYE = (42.0, 20.0)
CANONICAL_MOUTH = (30.0, 48.0)


@dataclass(frozen=True)
class GrayImage:
    """Row-major grayscale intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.size == 0:
            raise DimensionMismatchError(f"pixels must be a non-empty 2-D array, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise FormatError("pixel intensities must be finite")
        if px.min() < -1e-12 or px.max() > 1.0 + 1e-12:
            raise FormatError("pixel intensities must lie in [0, 1]")
        px = np.clip(px, 0.0, 1.0)
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def read_pgm(data: bytes) -> GrayImage:
    """Read a binary (P5) 8-bit PGM image and map intensities to [0, 1]."""
    if not data.startswith(b"P5"):
        raise FormatError("not a binary PGM (missing P5 magic)")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them
    pos = 2
    tokens = []
    while len(tokens) < 3:
        m = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)").match(data, pos)
        if m is None:
            raise FormatError("truncated PGM header")
        tokens.append(m.group(1))
        pos = m.end()
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError("non-numeric PGM header field") from exc
    if width < 1 or height < 1:
        raise FormatError("PGM dimensions must be positive")
    if not 0 < maxval < 256:
        raise FormatError(f"only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise FormatError("PGM raster shorter than width*height")
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(px.astype(np.float64) / maxval)


def write_pgm(image: GrayImage) -> bytes:
    """Serialize to binary 8-bit PGM (maxval 255)."""
    quantized = np.rint(image.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + quantized.tobytes()


def bilinear_sample(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at float (x, y) positions, clamped to the border."""
    h, w = pixels.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    top = pixels[y0, x0] * (1.0 - fx) + pixels[y0, x1] * fx
    bottom = pixels[y1, x0] * (1.0 - fx) + pixels[y1, x1] * fx
    return top * (1.0 - fy) + bottom * fy


@dataclass(frozen=True)
class SimilarityTransform:
    """p -> scale*R(angle) @ p + t, stored as (a, b, tx, ty) with R = [[a, -b], [b, a]]."""

    a: float
    b: float
    tx: float
    ty: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([self.a * x - self.b * y + self.tx, self.b * x + self.a * y + self.ty], axis=-1)

    def inverse(self) -> "SimilarityTransform":
        det = self.a * self.a + self.b * self.b
        if det <= 1e-24:
            raise DegenerateShapeError("similarity transform is not invertible")
        ia, ib = self.a / det, -self.b / det
        itx = -(ia * self.tx - ib * self.ty)
        ity = -(ib * self.tx + ia * self.ty)
        return SimilarityTransform(ia, ib, itx, ity)


def fit_similarity(src: np.ndarray, dst: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity (rotation + uniform scale + translation) src -> dst."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2 or src.shape[0] < 2:
        raise DimensionMismatchError("fit_similarity needs matching (n>=2, 2) point arrays")
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    s = src - sc
    d = dst - dc
    denom = float(np.sum(s**2))
    if denom <= 1e-24:
        raise DegenerateShapeError("source points coincide; similarity fit is degenerate")
    a = float(np.sum(s * d)) / denom
    b = float(np.sum(s[:, 0] * d[:, 1] - s[:, 1] * d[:, 0])) / denom
    tx = dc[0] - (a * sc[0] - b * sc[1])
    ty = dc[1] - (b * sc[0] + a * sc[1])
    return SimilarityTransform(a, b, tx, ty)


def warp_similarity(image: GrayImage, transform: SimilarityTransform, out_size: tuple[int, int]) -> GrayImage:
    """Resample ``image`` so output pixel p holds image[transform^-1(p)]."""
    out_w, out_h = out_size
    inv = transform.inverse()
    xs, ys = np.meshgrid(np.arange(out_w, dtype=np.float64), np.arange(out_h, dtype=np.float64))
    src = inv.apply(np.stack([xs, ys], axis=-1))
    sampled = bilinear_sample(image.pixels, src[..., 0], src[..., 1])
    return GrayImage(np.clip(sampled, 0.0, 1.0))


def align_face(image: GrayImage, landmarks: LandmarkSet) -> GrayImage:
    """Extract the canonical 60x60 face crop.

    Fits a similarity transform sending the shape's eye centers and mouth
    center (midpoint of the two mouth corners) to the canonical anchors
    (18, 20), (42, 20), (30, 48), then resamples bilinearly.
    """
    if landmarks.point_count != POINT_COUNT:
        raise UnsupportedTopologyError(
            f"face alignment requires the {POINT_COUNT}-point layout, got {landmarks.point_count}"
        )
    left, right = eye_centers(landmarks.points)
    if float(np.hypot(*(right - left))) <= 1e-9:
        raise DegenerateShapeError("eye centers coincide; alignment transform is degenerate")
    mouth = landmarks.points[list(MOUTH_CORNERS)].mean(axis=0)
    src = np.array([left, right, mouth])
    dst = np.array([CANONICAL_LEFT_EYE, CANONICAL_RIGHT_EYE, CANONICAL_MOUTH])
    transform = fit_similarity(src, dst)
    return warp_similarity(image, transform, (CROP_SIZE, CROP_SIZE))
