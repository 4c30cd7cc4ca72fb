import numpy as np
import pytest

from conftest import face_with_anchors
from landmark_emotion.errors import DegenerateShapeError, FormatError, UnsupportedTopologyError
from landmark_emotion.features.image import (
    GrayImage,
    SimilarityTransform,
    align_face,
    bilinear_sample,
    fit_similarity,
    read_pgm,
    warp_similarity,
    write_pgm,
)


def test_pgm_roundtrip(rng):
    img = GrayImage(np.round(rng.random((13, 17)) * 255) / 255.0)
    data = write_pgm(img)
    again = read_pgm(data)
    assert again.width == 17 and again.height == 13
    assert np.allclose(again.pixels, img.pixels, atol=1e-12)
    assert write_pgm(again) == data


def test_pgm_header_comments():
    data = b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([0, 128, 255, 64])
    img = read_pgm(data)
    assert img.width == 2 and img.height == 2
    assert img.pixels[0, 1] == pytest.approx(128 / 255)


def test_pgm_maxval_scaling():
    data = b"P5\n2 1\n100\n" + bytes([0, 100])
    img = read_pgm(data)
    assert img.pixels[0, 1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "data",
    [
        b"P2\n2 2\n255\n....",  # ascii PGM not supported
        b"P5\n2 2\n255\n" + bytes([0, 0, 0]),  # truncated raster
        b"P5\n2 2\n70000\n" + bytes([0] * 4),  # 16-bit depth
        b"P5\n2\n255\n",  # missing height
    ],
)
def test_pgm_malformed(data):
    with pytest.raises(FormatError):
        read_pgm(data)


def test_gray_image_validation():
    with pytest.raises(FormatError):
        GrayImage(np.array([[0.0, 2.0]]))
    with pytest.raises(Exception):
        GrayImage(np.zeros((0, 4)))


def test_bilinear_interior_and_clamp():
    px = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert bilinear_sample(px, np.array([0.5]), np.array([0.5]))[0] == pytest.approx(0.5)
    assert bilinear_sample(px, np.array([1.0]), np.array([0.0]))[0] == pytest.approx(1.0)
    # out-of-bounds coordinates clamp to the nearest border pixel
    assert bilinear_sample(px, np.array([-5.0]), np.array([9.0]))[0] == pytest.approx(0.0)
    assert bilinear_sample(px, np.array([7.0]), np.array([-2.0]))[0] == pytest.approx(1.0)


def test_fit_similarity_recovers_exact(rng):
    truth = SimilarityTransform(a=1.4 * np.cos(0.3), b=1.4 * np.sin(0.3), tx=5.0, ty=-2.0)
    src = rng.standard_normal((5, 2))
    dst = truth.apply(src)
    fitted = fit_similarity(src, dst)
    assert np.allclose(
        [fitted.a, fitted.b, fitted.tx, fitted.ty],
        [truth.a, truth.b, truth.tx, truth.ty],
        atol=1e-9,
    )
    inv = fitted.inverse()
    assert np.allclose(inv.apply(dst), src, atol=1e-9)


def test_fit_similarity_degenerate():
    src = np.zeros((3, 2))
    with pytest.raises(DegenerateShapeError):
        fit_similarity(src, np.ones((3, 2)))


def test_align_face_dimensions_and_constant(rng):
    face = face_with_anchors((100, 100), (148, 100), (124, 156))
    img = GrayImage(np.full((220, 220), 0.42))
    crop = align_face(img, face)
    assert crop.width == 60 and crop.height == 60
    assert np.allclose(crop.pixels, 0.42, atol=1e-12)


def test_align_face_maps_eye_to_canonical():
    # source anchors form a triangle exactly similar (scale 2) to the
    # canonical one, so the white dot at the left eye center must land on
    # the canonical left-eye anchor (18, 20)
    face = face_with_anchors((100.0, 100.0), (148.0, 100.0), (124.0, 156.0))
    pixels = np.zeros((260, 260))
    pixels[100, 100] = 1.0
    crop = align_face(GrayImage(pixels), face)
    peak_y, peak_x = np.unravel_index(np.argmax(crop.pixels), crop.pixels.shape)
    assert abs(peak_x - 18) <= 1
    assert abs(peak_y - 20) <= 1


def test_align_face_errors(rng):
    img = GrayImage(np.zeros((50, 50)))
    degenerate = face_with_anchors((10, 10), (10, 10), (10, 30))
    with pytest.raises(DegenerateShapeError):
        align_face(img, degenerate)
    from landmark_emotion.shapes import LandmarkSet

    with pytest.raises(UnsupportedTopologyError, match="68-point"):
        align_face(img, LandmarkSet(np.random.default_rng(0).random((10, 2))))


def test_warp_constant_preserved():
    img = GrayImage(np.full((30, 40), 0.7))
    t = SimilarityTransform(a=0.8, b=0.1, tx=3.0, ty=-1.0)
    out = warp_similarity(img, t, (25, 35))
    assert out.pixels.shape == (35, 25)
    assert np.allclose(out.pixels, 0.7, atol=1e-12)
