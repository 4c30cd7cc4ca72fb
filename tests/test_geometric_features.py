import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from conftest import apply_similarity, make_face, random_similarity
from landmark_emotion.errors import DimensionMismatchError
from landmark_emotion.features.extract import axis_distances, point_distances
from landmark_emotion.features.spec import pair_enumeration
from landmark_emotion.shapes import mean_shape, normalize_size, upright


def brute_force_distances(points):
    n = len(points)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(math.dist(points[i], points[j]))
    return np.array(out)


def test_distance_dimension_68(rng):
    shape = upright(normalize_size(make_face(rng, jitter=1.0).points))
    fv = point_distances(shape)
    assert fv.shape == (2278,)


def test_distances_match_brute_force(rng):
    shape = normalize_size(rng.standard_normal((9, 2)))
    fv = point_distances(shape)
    assert np.allclose(fv, brute_force_distances(shape), atol=1e-12)


def test_unit_square_distances():
    # raw unit-square corners: pair distances {1,1,1,1,sqrt2,sqrt2};
    # normalization divides by the RMS corner distance sqrt(0.5)
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    raw = brute_force_distances(corners)
    assert sorted(raw) == pytest.approx(sorted([1, 1, 1, 1, math.sqrt(2), math.sqrt(2)]))
    shape = normalize_size(corners)
    fv = point_distances(shape)
    assert np.allclose(np.sort(fv), np.sort(raw) / math.sqrt(0.5), atol=1e-12)


def test_distances_pair_order(rng):
    shape = normalize_size(rng.standard_normal((6, 2)))
    fv = point_distances(shape)
    for k, (i, j) in enumerate(pair_enumeration(6)):
        assert fv[k] == pytest.approx(math.dist(shape[i], shape[j]), abs=1e-12)


def test_distances_similarity_invariance(rng):
    for _ in range(25):
        face = make_face(rng, jitter=2.0)
        base = point_distances(normalize_size(face.points))
        moved = apply_similarity(face.points, *random_similarity(rng))
        other = point_distances(normalize_size(moved))
        assert np.allclose(base, other, atol=1e-6)


def _mean_of(*shapes):
    return mean_shape(list(shapes))


def test_axis_dimension_and_zero(rng):
    shape = upright(normalize_size(make_face(rng, jitter=1.0).points))
    mean = _mean_of(shape)
    fv = axis_distances(shape, mean)
    assert fv.shape == (136,)
    assert np.allclose(fv, 0.0, atol=1e-9)


def test_axis_locality(rng):
    # shifting one coordinate by +delta relative to the mean moves exactly
    # one output entry, the x of point 30 at interleaved index 60
    shape = upright(normalize_size(make_face(rng, jitter=1.0).points))
    delta = 0.037
    mean_points = shape.copy()
    mean_points[30, 0] -= delta
    fv = axis_distances(shape, mean_points)
    nonzero = np.flatnonzero(fv)
    assert list(nonzero) == [60]
    assert fv[60] == pytest.approx(delta, abs=1e-12)


def test_axis_interleaving(rng):
    shape = upright(normalize_size(make_face(rng, jitter=1.0).points))
    other = upright(normalize_size(make_face(rng, jitter=1.0).points))
    mean = _mean_of(other)
    fv = axis_distances(shape, mean)
    expected = (shape - mean).ravel()
    assert np.array_equal(fv, expected)
    assert fv[0] == shape[0, 0] - mean[0, 0]
    assert fv[1] == shape[0, 1] - mean[0, 1]


def test_axis_point_count_mismatch(rng):
    shape = normalize_size(rng.standard_normal((68, 2)))
    small = normalize_size(rng.standard_normal((4, 2)))
    with pytest.raises(DimensionMismatchError):
        axis_distances(shape, small)


def test_stacked_features_match_face_by_face(rng):
    # faces from 1e-8 to 1e150 across, up-righted as a stack
    faces = [make_face(rng, jitter=2.0).points * 10.0 ** rng.uniform(-10, 148) for _ in range(60)]
    shapes = upright(normalize_size(np.stack(faces)))
    mean = mean_shape(shapes[:20])
    distances = point_distances(shapes)
    assert distances.shape == (60, 2278)
    assert distances.tobytes() == np.stack([point_distances(s) for s in shapes]).tobytes()
    # the floats scipy's pdist gives, which the distances were once computed with
    assert distances.tobytes() == np.stack([pdist(s) for s in shapes]).tobytes()
    axis = axis_distances(shapes, mean)
    assert axis.shape == (60, 136)
    assert axis.tobytes() == np.stack([axis_distances(s, mean) for s in shapes]).tobytes()
