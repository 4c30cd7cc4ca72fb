import numpy as np
import pytest

from conftest import make_face
from landmark_emotion.errors import DimensionMismatchError
from landmark_emotion.features.extract import point_texture, point_texture_block, point_texture_sizes
from landmark_emotion.features.gabor import gabor_kernel_pair
from landmark_emotion.features.image import GrayImage
from landmark_emotion.shapes import LandmarkSet


def test_dimension_6528(rng):
    img = GrayImage(rng.random((200, 200)))
    face = make_face(rng, jitter=1.0)
    fv = point_texture(img, face, scales=8, orientations=12)
    assert fv.shape == (6528,)  # 68 points x 8 scales x 12 orientations
    assert point_texture_block(68, 8, 12).dimension == 6528


def test_constant_image_zero(rng):
    img = GrayImage(np.full((200, 200), 0.5))
    face = make_face(rng, jitter=1.0)
    fv = point_texture(img, face, scales=2, orientations=3)
    assert np.all(np.abs(fv) <= 1e-10)


def direct_response(pixels, x, y, even, odd):
    """Independent correlation at one pixel with edge clamping."""
    size = even.shape[0]
    half = size // 2
    h, w = pixels.shape
    re = im = 0.0
    for dy in range(size):
        for dx in range(size):
            sy = min(max(y + dy - half, 0), h - 1)
            sx = min(max(x + dx - half, 0), w - 1)
            re += pixels[sy, sx] * even[dy, dx]
            im += pixels[sy, sx] * odd[dy, dx]
    return np.hypot(re, im)


def test_single_landmark_direct_oracle(rng):
    pixels = rng.random((31, 29))
    landmark = LandmarkSet(np.array([[14.0, 15.0]]))
    fv = point_texture(GrayImage(pixels), landmark, scales=1, orientations=1)
    assert fv.shape == (1,)
    even, odd = gabor_kernel_pair(7, 0.0)
    expected = direct_response(pixels, 14, 15, even, odd)
    assert fv[0] == pytest.approx(expected, abs=1e-9)


def test_layout_point_scale_orientation(rng):
    pixels = rng.random((64, 64))
    pts = LandmarkSet(np.array([[20.0, 20.0], [40.0, 36.0]]))
    scales, orientations = 2, 3
    fv = point_texture(GrayImage(pixels), pts, scales=scales, orientations=orientations)
    assert fv.shape == (2 * scales * orientations,)
    sizes = point_texture_sizes(scales)
    assert sizes == (7, 11)
    # entry (point=1, scale=1, orientation=2) sits at the row-major position
    idx = 1 * (scales * orientations) + 1 * orientations + 2
    theta = np.pi * 2 / orientations
    even, odd = gabor_kernel_pair(sizes[1], theta)
    expected = direct_response(pixels, 40, 36, even, odd)
    assert fv[idx] == pytest.approx(expected, abs=1e-9)


def test_out_of_bounds_landmark_clamped(rng):
    pixels = rng.random((20, 20))
    inside = point_texture(GrayImage(pixels), LandmarkSet(np.array([[0.0, 0.0]])), 1, 1)
    outside = point_texture(GrayImage(pixels), LandmarkSet(np.array([[-7.0, -3.0]])), 1, 1)
    assert inside[0] == outside[0]


def test_bad_arguments(rng):
    img = GrayImage(rng.random((10, 10)))
    with pytest.raises(DimensionMismatchError):
        point_texture(img, LandmarkSet(np.array([[1.0, 1.0]])), scales=0, orientations=3)
    assert point_texture_block(68, 8, 12).dimension == 6528
