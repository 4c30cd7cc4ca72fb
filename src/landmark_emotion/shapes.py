"""Landmark data model, `.pts` parsing, and geometric normalization.

Landmarks follow the zero-based iBUG 68-point convention: indices 36-41 are
the left eye contour, 42-47 the right eye contour, 48 and 54 the mouth
corners.  Raw points arrive as a ``LandmarkSet``, which checks them; a
normalized, up-righted or mean shape is a read-only (n, 2) float array.

``centroid_size``, ``normalize_size``, ``upright`` and ``eye_centers`` take a
(..., n, 2) stack of shapes and work on the last two axes, so one call
covers every face of a split; a single face is the stack with no leading
axis.  Each face gets the floats it would get alone.  A stack that holds a
face failing a check raises that face's error, for the first such face.  All
operations are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LandmarkEmotionError

POINT_COUNT = 68  # points in the iBUG layout
LEFT_EYE = slice(36, 42)
RIGHT_EYE = slice(42, 48)
MOUTH_CORNERS = (48, 54)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise LandmarkEmotionError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise LandmarkEmotionError("landmark coordinates must be finite")
    pts = pts.copy()
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class LandmarkSet:
    """Raw 2-D landmark points for one face, in image pixel coordinates."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))
        if self.point_count == 0:
            raise LandmarkEmotionError("a landmark set needs at least one point")

    @property
    def point_count(self) -> int:
        return self.points.shape[0]


def centroid_size(points: np.ndarray) -> np.ndarray:
    """Root-mean-square distance of the points from their centroid, per shape."""
    pts = np.asarray(points, dtype=np.float64)
    # coordinates near 1e200 overflow the squares, and near 1e306 the centroid;
    # the size is then inf or nan, which normalize_size rejects
    with np.errstate(over="ignore", invalid="ignore"):
        centered = pts - pts.mean(axis=-2, keepdims=True)
        return np.sqrt(np.mean(np.sum(centered**2, axis=-1), axis=-1))


def parse_pts(text: str) -> LandmarkSet:
    """Parse an iBUG 300-W ``.pts`` file (version line, ``n_points:``, braces).

    Raises LandmarkEmotionError when the declared point count disagrees with the
    number of coordinate lines or a coordinate is not numeric.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("//")]
    if not lines or not lines[0].lower().startswith("version"):
        raise LandmarkEmotionError("missing 'version' header line")
    if len(lines) < 2 or not lines[1].lower().startswith("n_points"):
        raise LandmarkEmotionError("missing 'n_points' header line")
    try:
        declared = int(lines[1].split(":", 1)[1])
    except (IndexError, ValueError) as exc:
        raise LandmarkEmotionError(f"unreadable n_points line: {lines[1]!r}") from exc
    if declared <= 0:
        raise LandmarkEmotionError(f"n_points must be positive, got {declared}")

    body = lines[2:]
    if not body or body[0] != "{" or body[-1] != "}":
        raise LandmarkEmotionError("points must be enclosed in '{' and '}'")
    coord_lines = body[1:-1]
    if len(coord_lines) != declared:
        raise LandmarkEmotionError(f"declared n_points: {declared} but found {len(coord_lines)} point lines")

    rows = [ln.split() for ln in coord_lines]
    points = None
    if all(len(parts) == 2 for parts in rows):
        try:
            points = np.array([t for parts in rows for t in parts], dtype=np.float64)  # float() per token
        except ValueError:
            pass
    if points is None:
        # name the first bad line, as a line-by-line reading meets it
        for i, (ln, parts) in enumerate(zip(coord_lines, rows)):
            if len(parts) != 2:
                raise LandmarkEmotionError(f"point line {i} must hold exactly 'x y', got {ln!r}")
            try:
                float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise LandmarkEmotionError(f"non-numeric coordinate on point line {i}: {ln!r}") from exc
    return LandmarkSet(points.reshape(declared, 2))


def write_pts(landmarks: LandmarkSet) -> str:
    """Serialize a landmark set in the iBUG ``.pts`` convention.

    Coordinates use the shortest exact decimal representation, so
    ``parse_pts(write_pts(s))`` reproduces the coordinates bit for bit.
    """
    lines = ["version: 1", f"n_points: {landmarks.point_count}", "{"]
    for x, y in landmarks.points.tolist():
        lines.append(f"{x!r} {y!r}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def normalize_size(points: np.ndarray) -> np.ndarray:
    """Center each shape on its centroid and divide out its centroid size.

    Returns the read-only points, each shape centered on the origin with
    centroid size 1.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-2] < 2:
        raise LandmarkEmotionError("size normalization needs at least 2 points")
    size = centroid_size(pts)
    for value in np.ravel(size).tolist():
        if not math.isfinite(value):
            raise LandmarkEmotionError(f"centroid size {value} is not finite")
        if value <= 1e-12:
            raise LandmarkEmotionError("all points coincide; centroid size is zero")
    normalized = (pts - pts.mean(axis=-2, keepdims=True)) / size[..., None, None]
    # kill residual floating-point drift so the invariants hold exactly
    normalized = normalized - normalized.mean(axis=-2, keepdims=True)
    normalized.flags.writeable = False
    return normalized


def eye_centers(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the left (36-41) and right (42-47) eye contour points, per shape."""
    return points[..., LEFT_EYE, :].mean(axis=-2), points[..., RIGHT_EYE, :].mean(axis=-2)


def upright(points: np.ndarray) -> np.ndarray:
    """Rotate normalized 68-point shapes so the eye-center line is horizontal.

    The right eye ends up at larger x than the left.  Returns the rotated
    points, re-centered and read-only.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[-2] != POINT_COUNT:
        raise LandmarkEmotionError(
            f"up-righting requires the {POINT_COUNT}-point layout, got {points.shape[-2]} points"
        )
    left, right = eye_centers(points)
    delta = right - left
    spans = np.hypot(delta[..., 0], delta[..., 1])
    rot = []
    # the angle per face with math, not numpy: np.arctan2's bits depend on the CPU's SIMD level
    for (dx, dy), span in zip(delta.reshape(-1, 2).tolist(), np.ravel(spans).tolist()):
        if span <= 1e-12:
            raise LandmarkEmotionError("eye centers coincide; orientation is undefined")
        angle = math.atan2(dy, dx)
        cos, sin = math.cos(-angle), math.sin(-angle)
        rot.append([[cos, -sin], [sin, cos]])
    rot = np.array(rot).reshape(delta.shape[:-1] + (2, 2))
    # a BLAS product per face, as for a single face; elementwise arithmetic would move the last bits
    rotated = points @ np.swapaxes(rot, -1, -2)
    rotated = rotated - rotated.mean(axis=-2, keepdims=True)
    rotated.flags.writeable = False
    return rotated


def mean_shape(shapes: np.ndarray) -> np.ndarray:
    """Coordinate-wise mean of an (m, n, 2) stack of normalized shapes, re-normalized to size 1."""
    try:
        stack = np.asarray(shapes, dtype=np.float64)
    except ValueError as exc:  # a sequence of shapes with different point counts
        raise LandmarkEmotionError("cannot average shapes with different point counts") from exc
    if stack.ndim != 3 or len(stack) == 0 or stack.shape[-1] != 2:
        raise LandmarkEmotionError(f"need a non-empty (m, n, 2) stack of shapes, got shape {stack.shape}")
    return normalize_size(stack.mean(axis=0))
