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
    shape = normalize_size(square.points)
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
    a = normalize_size(pts)
    b = normalize_size(2.0 * pts)
    c = normalize_size(pts + [100.0, -40.0])
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(a, c, atol=1e-12)


def test_normalize_invariants(rng):
    shape = normalize_size(make_face(rng, jitter=2.0).points)
    assert np.allclose(shape.mean(axis=0), 0.0, atol=1e-9)
    assert centroid_size(shape) == pytest.approx(1.0, abs=1e-9)


def test_normalize_idempotent(rng):
    shape = normalize_size(make_face(rng, jitter=2.0).points)
    again = normalize_size(shape)
    assert np.allclose(shape, again, atol=1e-12)
    # a second normalization divides out a scale of 1
    assert centroid_size(shape) == pytest.approx(1.0, abs=1e-9)


def test_normalize_degenerate():
    with pytest.raises(DegenerateShapeError):
        normalize_size([(3.0, 4.0)] * 5)
    with pytest.raises(DegenerateShapeError):
        normalize_size([(3.0, 4.0)])
    # finite coordinates whose centroid size overflows to inf
    with np.errstate(over="ignore"), pytest.raises(DegenerateShapeError):
        normalize_size([(0.0, 0.0), (1e200, 1e200), (-1e200, 3e200)])


def test_normalized_shapes_are_read_only_arrays(rng):
    normalized = normalize_size(make_face(rng, jitter=1.0).points)
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
    normalized = normalize_size(face.points)
    shape = upright(normalized)
    angle = -math.atan2(-0.2, 0.6)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    assert np.allclose(shape, normalized @ rot.T, rtol=0.0, atol=1e-12)
    left, right = eye_centers(shape)
    assert right[1] - left[1] == pytest.approx(0.0, abs=1e-9)
    assert right[0] > left[0]


def test_upright_fixed_point(rng):
    shape = upright(normalize_size(make_face(rng, jitter=1.0).points))
    left, right = eye_centers(shape)
    assert math.atan2(right[1] - left[1], right[0] - left[0]) == pytest.approx(0.0, abs=1e-12)
    again = upright(shape)
    assert np.allclose(again, shape, atol=1e-9)


def test_upright_rotation_invariance(rng):
    face = make_face(rng, jitter=1.0)
    base = upright(normalize_size(face.points))
    angle = math.radians(17.0)
    rotated = apply_similarity(face.points, angle, 1.0, np.zeros(2))
    other = upright(normalize_size(rotated))
    assert np.allclose(base, other, atol=1e-9)


def test_upright_errors(rng):
    small = normalize_size(rng.standard_normal((10, 2)))
    with pytest.raises(UnsupportedTopologyError):
        upright(small)
    degenerate = face_with_anchors((5.0, 5.0), (5.0, 5.0), (5.0, 9.0))
    with pytest.raises(DegenerateShapeError):
        upright(normalize_size(degenerate.points))


def test_mean_shape_idempotent(rng):
    shape = upright(normalize_size(make_face(rng, jitter=1.0).points))
    mean = mean_shape([shape] * 5)
    assert np.allclose(mean, shape, atol=1e-9)


def test_mean_shape_midpoint(rng):
    a = upright(normalize_size(make_face(rng, jitter=2.0).points))
    b = upright(normalize_size(make_face(rng, jitter=2.0).points))
    mean = mean_shape([a, b])
    midpoint = (a + b) / 2.0
    expected = normalize_size(midpoint)
    assert np.allclose(mean, expected, atol=1e-12)
    assert centroid_size(mean) == pytest.approx(1.0, abs=1e-9)


def test_mean_shape_errors(rng):
    with pytest.raises(DimensionMismatchError):
        mean_shape([])
    a = normalize_size(rng.standard_normal((68, 2)))
    b = normalize_size(rng.standard_normal((4, 2)))
    with pytest.raises(DimensionMismatchError):
        mean_shape([a, b])


def test_similarity_pipeline_invariance(rng):
    # upright(normalize(T(S))) == upright(normalize(S)) for similarity T
    for _ in range(50):
        face = make_face(rng, jitter=2.0)
        base = upright(normalize_size(face.points))
        transformed = apply_similarity(face.points, *random_similarity(rng))
        other = upright(normalize_size(transformed))
        assert np.allclose(base, other, atol=1e-6)


def test_stacked_steps_match_face_by_face(rng):
    # faces from 1e-8 to 1e150 across, each rotated and moved
    faces = np.stack(
        [
            apply_similarity(make_face(rng, jitter=2.0).points, *random_similarity(rng))
            * 10.0 ** rng.uniform(-10, 148)
            for _ in range(60)
        ]
    )
    sizes = centroid_size(faces)
    assert sizes.shape == (60,)
    assert sizes.tobytes() == np.array([centroid_size(f) for f in faces]).tobytes()
    normalized = normalize_size(faces)
    assert normalized.tobytes() == np.stack([normalize_size(f) for f in faces]).tobytes()
    for stacked, single in zip(eye_centers(normalized), zip(*(eye_centers(f) for f in normalized))):
        assert stacked.tobytes() == np.stack(single).tobytes()
    uprighted = upright(normalized)
    assert uprighted.tobytes() == np.stack([upright(f) for f in normalized]).tobytes()
    assert not uprighted.flags.writeable
    # a stack of stacks is up-righted shape by shape too
    assert upright(normalized.reshape(6, 10, 68, 2)).tobytes() == uprighted.tobytes()
    assert mean_shape(uprighted).tobytes() == mean_shape(list(uprighted)).tobytes()


def test_a_stack_raises_the_error_of_its_first_failing_face(rng):
    good = normalize_size(make_face(rng, jitter=1.0).points)
    no_size = np.full((68, 2), 3.0)
    no_eyes = face_with_anchors((5.0, 5.0), (5.0, 5.0), (5.0, 9.0)).points
    with pytest.raises(DegenerateShapeError, match="all points coincide"):
        normalize_size(np.stack([good, no_size, 1e200 * good]))
    # the overflow is no numpy warning, even where warnings are errors
    with np.errstate(over="raise"), pytest.raises(DegenerateShapeError, match="centroid size inf"):
        normalize_size(np.stack([good, 1e200 * good, no_size]))
    with pytest.raises(DegenerateShapeError, match="eye centers coincide"):
        upright(np.stack([good, good, no_eyes]))
