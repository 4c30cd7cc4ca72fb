import math

import numpy as np
import pytest

from conftest import apply_similarity, face_with_anchors, make_face, random_similarity
from landmark_emotion.errors import (
    DegenerateShapeError,
    DimensionMismatchError,
    FormatError,
    UnsupportedTopologyError,
)
from landmark_emotion.shapes import (
    LandmarkSet,
    centroid_size,
    eye_centers,
    mean_shape,
    normalize_size,
    parse_pts,
    upright,
    write_pts,
)

PTS_3 = """version: 1
n_points: 3
{
1.0 2.0
3.5 -4.25
0.0 0.0
}
"""


def test_parse_pts_minimal():
    lm = parse_pts(PTS_3)
    assert lm.point_count == 3
    assert np.array_equal(lm.points, [[1.0, 2.0], [3.5, -4.25], [0.0, 0.0]])


def test_parse_pts_68(rng):
    face = make_face(rng, jitter=1.0)
    lm = parse_pts(write_pts(face))
    assert lm.point_count == 68


def test_parse_pts_declared_actual_mismatch():
    text = PTS_3.replace("n_points: 3", "n_points: 4")
    with pytest.raises(FormatError, match="4"):
        parse_pts(text)


def test_parse_pts_non_numeric():
    with pytest.raises(FormatError, match="non-numeric"):
        parse_pts(PTS_3.replace("3.5", "x"))


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("version: 1\n", ""),
        lambda t: t.replace("{\n", ""),
        lambda t: t.replace("\n}", ""),
        lambda t: t.replace("1.0 2.0", "1.0 2.0 3.0"),
    ],
)
def test_parse_pts_malformed(mutation):
    with pytest.raises(FormatError):
        parse_pts(mutation(PTS_3))


def test_pts_roundtrip_exact(rng):
    pts = rng.standard_normal((68, 2)) * 123.456
    lm = LandmarkSet(pts)
    again = parse_pts(write_pts(lm))
    assert np.array_equal(again.points, lm.points)


def test_normalize_unit_square():
    square = LandmarkSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    shape = normalize_size(square)
    # RMS corner distance of the unit square is sqrt(0.5); each corner lands
    # at (+-1/sqrt(2), +-1/sqrt(2)) and has unit norm
    coord = 0.7071067811865476
    assert np.allclose(np.abs(shape), coord, atol=1e-12)
    assert np.allclose(np.linalg.norm(shape, axis=1), 1.0, atol=1e-12)
    # the scale divided out is the input's centroid size
    scale = centroid_size(square.points)
    assert scale == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert np.allclose(shape * scale + square.points.mean(axis=0), square.points, atol=1e-12)


def test_normalize_scale_and_translation_invariance(rng):
    pts = rng.standard_normal((68, 2))
    a = normalize_size(LandmarkSet(pts))
    b = normalize_size(LandmarkSet(2.0 * pts))
    c = normalize_size(LandmarkSet(pts + [100.0, -40.0]))
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(a, c, atol=1e-12)


def test_normalize_invariants(rng):
    shape = normalize_size(make_face(rng, jitter=2.0))
    assert np.allclose(shape.mean(axis=0), 0.0, atol=1e-9)
    assert centroid_size(shape) == pytest.approx(1.0, abs=1e-9)


def test_normalize_idempotent(rng):
    shape = normalize_size(make_face(rng, jitter=2.0))
    again = normalize_size(LandmarkSet(shape))
    assert np.allclose(shape, again, atol=1e-12)
    # a second normalization divides out a scale of 1
    assert centroid_size(shape) == pytest.approx(1.0, abs=1e-9)


def test_normalize_degenerate():
    with pytest.raises(DegenerateShapeError):
        normalize_size(LandmarkSet([(3.0, 4.0)] * 5))
    with pytest.raises(DegenerateShapeError):
        normalize_size(LandmarkSet([(3.0, 4.0)]))
    # finite coordinates whose centroid size overflows to inf
    with np.errstate(over="ignore"), pytest.raises(DegenerateShapeError):
        normalize_size(LandmarkSet([(0.0, 0.0), (1e200, 1e200), (-1e200, 3e200)]))


def test_normalized_shapes_are_read_only_arrays(rng):
    normalized = normalize_size(make_face(rng, jitter=1.0))
    uprighted = upright(normalized)
    mean = mean_shape([uprighted])
    for points in (normalized, uprighted, mean):
        assert type(points) is np.ndarray
        assert points.shape == (68, 2) and points.dtype == np.float64
        with pytest.raises(ValueError):
            points[0, 0] = 1.0


def test_upright_derived_angle():
    # eye centers at (-0.3, 0.1) and (0.3, -0.1): the eye line has angle
    # atan2(-0.2, 0.6), which up-righting must remove
    face = face_with_anchors((-0.3, 0.1), (0.3, -0.1), (0.0, 0.6))
    normalized = normalize_size(face)
    shape = upright(normalized)
    angle = -math.atan2(-0.2, 0.6)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    assert np.allclose(shape, normalized @ rot.T, rtol=0.0, atol=1e-12)
    left, right = eye_centers(shape)
    assert right[1] - left[1] == pytest.approx(0.0, abs=1e-9)
    assert right[0] > left[0]


def test_upright_fixed_point(rng):
    shape = upright(normalize_size(make_face(rng, jitter=1.0)))
    left, right = eye_centers(shape)
    assert math.atan2(right[1] - left[1], right[0] - left[0]) == pytest.approx(0.0, abs=1e-12)
    again = upright(shape)
    assert np.allclose(again, shape, atol=1e-9)


def test_upright_rotation_invariance(rng):
    face = make_face(rng, jitter=1.0)
    base = upright(normalize_size(face))
    angle = math.radians(17.0)
    rotated = apply_similarity(face.points, angle, 1.0, np.zeros(2))
    other = upright(normalize_size(LandmarkSet(rotated)))
    assert np.allclose(base, other, atol=1e-9)


def test_upright_errors(rng):
    small = normalize_size(LandmarkSet(rng.standard_normal((10, 2))))
    with pytest.raises(UnsupportedTopologyError):
        upright(small)
    degenerate = face_with_anchors((5.0, 5.0), (5.0, 5.0), (5.0, 9.0))
    with pytest.raises(DegenerateShapeError):
        upright(normalize_size(degenerate))


def test_mean_shape_idempotent(rng):
    shape = upright(normalize_size(make_face(rng, jitter=1.0)))
    mean = mean_shape([shape] * 5)
    assert np.allclose(mean, shape, atol=1e-9)


def test_mean_shape_midpoint(rng):
    a = upright(normalize_size(make_face(rng, jitter=2.0)))
    b = upright(normalize_size(make_face(rng, jitter=2.0)))
    mean = mean_shape([a, b])
    midpoint = (a + b) / 2.0
    expected = normalize_size(LandmarkSet(midpoint))
    assert np.allclose(mean, expected, atol=1e-12)
    assert centroid_size(mean) == pytest.approx(1.0, abs=1e-9)


def test_mean_shape_errors(rng):
    with pytest.raises(DimensionMismatchError):
        mean_shape([])
    a = normalize_size(LandmarkSet(rng.standard_normal((68, 2))))
    b = normalize_size(LandmarkSet(rng.standard_normal((4, 2))))
    with pytest.raises(DimensionMismatchError):
        mean_shape([a, b])


def test_similarity_pipeline_invariance(rng):
    # upright(normalize(T(S))) == upright(normalize(S)) for similarity T
    for _ in range(50):
        face = make_face(rng, jitter=2.0)
        base = upright(normalize_size(face))
        transformed = apply_similarity(face.points, *random_similarity(rng))
        other = upright(normalize_size(LandmarkSet(transformed)))
        assert np.allclose(base, other, atol=1e-6)
