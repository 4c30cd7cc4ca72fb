"""Landmark data model, `.pts` parsing, and geometric normalization.

Landmarks follow the zero-based iBUG 68-point convention: indices 36-41 are
the left eye contour, 42-47 the right eye contour, 48 and 54 the mouth
corners.  Raw points arrive as a ``LandmarkSet``, which checks them; a
normalized, up-righted or mean shape is a read-only (n, 2) float array.  All
operations are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateShapeError, DimensionMismatchError, FormatError, UnsupportedTopologyError

POINT_COUNT = 68  # points in the iBUG layout
LEFT_EYE = slice(36, 42)
RIGHT_EYE = slice(42, 48)
MOUTH_CORNERS = (48, 54)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatchError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise FormatError("landmark coordinates must be finite")
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
            raise FormatError("a landmark set needs at least one point")

    @property
    def point_count(self) -> int:
        return self.points.shape[0]


def centroid_size(points: np.ndarray) -> float:
    """Root-mean-square distance of the points from their centroid."""
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))


def parse_pts(text: str) -> LandmarkSet:
    """Parse an iBUG 300-W ``.pts`` file (version line, ``n_points:``, braces).

    Raises FormatError when the declared point count disagrees with the
    number of coordinate lines or a coordinate is not numeric.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("//")]
    if not lines or not lines[0].lower().startswith("version"):
        raise FormatError("missing 'version' header line")
    if len(lines) < 2 or not lines[1].lower().startswith("n_points"):
        raise FormatError("missing 'n_points' header line")
    try:
        declared = int(lines[1].split(":", 1)[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"unreadable n_points line: {lines[1]!r}") from exc
    if declared <= 0:
        raise FormatError(f"n_points must be positive, got {declared}")

    body = lines[2:]
    if not body or body[0] != "{" or body[-1] != "}":
        raise FormatError("points must be enclosed in '{' and '}'")
    coord_lines = body[1:-1]
    if len(coord_lines) != declared:
        raise FormatError(f"declared n_points: {declared} but found {len(coord_lines)} point lines")

    points = np.empty((declared, 2), dtype=np.float64)
    for i, ln in enumerate(coord_lines):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"point line {i} must hold exactly 'x y', got {ln!r}")
        try:
            points[i, 0] = float(parts[0])
            points[i, 1] = float(parts[1])
        except ValueError as exc:
            raise FormatError(f"non-numeric coordinate on point line {i}: {ln!r}") from exc
    return LandmarkSet(points)


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


def normalize_size(landmarks: LandmarkSet) -> np.ndarray:
    """Center a shape on its centroid and divide out its centroid size.

    Returns the read-only (n, 2) points, centered on the origin with
    centroid size 1.
    """
    if landmarks.point_count < 2:
        raise DegenerateShapeError("size normalization needs at least 2 points")
    pts = landmarks.points
    centered = pts - pts.mean(axis=0)
    size = centroid_size(pts)
    if not math.isfinite(size):
        raise DegenerateShapeError(f"centroid size {size} is not finite")
    if size <= 1e-12:
        raise DegenerateShapeError("all points coincide; centroid size is zero")
    normalized = centered / size
    # kill residual floating-point drift so the invariants hold exactly
    normalized = normalized - normalized.mean(axis=0)
    normalized.flags.writeable = False
    return normalized


def eye_centers(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the left (36-41) and right (42-47) eye contour points."""
    return points[LEFT_EYE].mean(axis=0), points[RIGHT_EYE].mean(axis=0)


def upright(points: np.ndarray) -> np.ndarray:
    """Rotate normalized (68, 2) points so the eye-center line is horizontal.

    The right eye ends up at larger x than the left.  Returns the rotated
    points, re-centered and read-only.
    """
    if points.shape[0] != POINT_COUNT:
        raise UnsupportedTopologyError(
            f"up-righting requires the {POINT_COUNT}-point layout, got {points.shape[0]} points"
        )
    left, right = eye_centers(points)
    delta = right - left
    if float(np.hypot(delta[0], delta[1])) <= 1e-12:
        raise DegenerateShapeError("eye centers coincide; orientation is undefined")
    angle = math.atan2(delta[1], delta[0])
    cos, sin = math.cos(-angle), math.sin(-angle)
    rot = np.array([[cos, -sin], [sin, cos]])
    rotated = points @ rot.T
    rotated = rotated - rotated.mean(axis=0)
    rotated.flags.writeable = False
    return rotated


def mean_shape(shapes: Iterable[np.ndarray]) -> np.ndarray:
    """Coordinate-wise mean of normalized (n, 2) shapes, re-normalized to size 1."""
    shapes = list(shapes)
    if not shapes:
        raise DimensionMismatchError("cannot average an empty sequence of shapes")
    for s in shapes:
        if s.shape != shapes[0].shape:
            raise DimensionMismatchError(f"mixed shapes: {shapes[0].shape} vs {s.shape}")
    avg = np.stack(shapes).mean(axis=0)
    return normalize_size(LandmarkSet(avg))
