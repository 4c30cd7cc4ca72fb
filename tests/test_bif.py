import numpy as np
import pytest
from scipy import ndimage

from landmark_emotion.errors import DimensionMismatchError
from landmark_emotion.features.extract import bif_block, bif_features
from landmark_emotion.features.gabor import Band, build_gabor_bank, gabor_kernel_pair
from landmark_emotion.features.image import GrayImage


def loop_correlate_clamp(image, kernel):
    h, w = image.shape
    kh, kw = kernel.shape
    out = np.zeros_like(image)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(kh):
                for dx in range(kw):
                    sy = min(max(y + dy - kh // 2, 0), h - 1)
                    sx = min(max(x + dx - kw // 2, 0), w - 1)
                    acc += image[sy, sx] * kernel[dy, dx]
            out[y, x] = acc
    return out


def loop_magnitude(image, even, odd):
    return np.sqrt(loop_correlate_clamp(image, even) ** 2 + loop_correlate_clamp(image, odd) ** 2)


def ndimage_magnitude(image, even, odd):
    return np.hypot(
        ndimage.correlate(image, even, mode="nearest"),
        ndimage.correlate(image, odd, mode="nearest"),
    )


def brute_force_bif(image, bank, magnitude=loop_magnitude):
    """Independent evaluation: per-kernel magnitudes, max over sizes, per-window pooling.

    The default loop convolution suits toy crops; ``ndimage_magnitude`` is
    fast enough for a full 60x60 crop with the default bank.
    """
    feats = []
    for band in bank.bands:
        for oi in range(bank.orientations):
            pooled = None
            for size in band.sizes:
                mag = magnitude(image, *gabor_kernel_pair(size, np.pi * oi / bank.orientations))
                pooled = mag if pooled is None else np.maximum(pooled, mag)
            n = image.shape[0]
            for y0 in range(0, n - band.cell + 1, band.step):
                for x0 in range(0, n - band.cell + 1, band.step):
                    window = pooled[y0 : y0 + band.cell, x0 : x0 + band.cell]
                    feats.append(window.max())
                    feats.append(window.std())
    return np.array(feats)


# build_gabor_bank arguments of the brute-force toys
TOY_SINGLE = dict(bands=(Band(sizes=(3,), cell=4, step=4),), orientations=1, image_size=4)
TOY_MULTI = dict(bands=(Band(sizes=(3, 5), cell=4, step=2),), orientations=2, image_size=8)
# cells that are not a multiple of the step: pooled from 1x1 tiles (cell 5,
# step 3) and from 2x2 tiles (cell 6, step 4), with the crop's last rows unread
TOY_UNEVEN = dict(
    bands=(Band(sizes=(3,), cell=5, step=3), Band(sizes=(3, 5), cell=6, step=4)), orientations=2, image_size=12
)
# a kernel wider than the crop: the edge padding (4 px) reaches past the whole image
TOY_WIDE = dict(bands=(Band(sizes=(9,), cell=4, step=4),), orientations=3, image_size=4)


def test_constant_image_all_zero():
    bank = build_gabor_bank()
    img = GrayImage(np.full((60, 60), 0.63))
    fv = bif_features(img, bank)
    assert np.all(np.abs(fv) <= 1e-10)


def test_dimension_matches_spec_and_is_input_independent(rng):
    bank = build_gabor_bank()
    block = bif_block(bank)
    a = bif_features(GrayImage(rng.random((60, 60))), bank)
    b = bif_features(GrayImage(rng.random((60, 60))), bank)
    assert a.shape == b.shape == (block.dimension,)
    # 8 orientations x 2 stats x sum of per-band cell grids
    assert block.dimension == 2 * 8 * sum(bank.cells_per_band())


def test_repeat_bit_identical(rng):
    bank = build_gabor_bank(**TOY_MULTI)
    img = GrayImage(rng.random((8, 8)))
    assert np.array_equal(bif_features(img, bank), bif_features(img, bank))


def test_single_cell_toy_matches_brute_force(rng):
    bank = build_gabor_bank(**TOY_SINGLE)
    img = GrayImage(rng.random((4, 4)))
    fv = bif_features(img, bank)
    expected = brute_force_bif(img.pixels, bank)
    assert fv.shape == (2,)  # one band, one orientation, one cell, MAX + STDDEV
    assert np.allclose(fv, expected, atol=1e-9)


def test_multi_band_toy_matches_brute_force(rng):
    bank = build_gabor_bank(**TOY_MULTI)
    img = GrayImage(rng.random((8, 8)))
    fv = bif_features(img, bank)
    expected = brute_force_bif(img.pixels, bank)
    # one band, two orientations, 3x3 overlapping cells, two stats
    assert fv.shape == (2 * 2 * 9,)
    assert np.allclose(fv, expected, atol=1e-9)
    uneven = build_gabor_bank(**TOY_UNEVEN)
    # A near-flat crop makes every STDDEV tiny.  On a ramp the odd kernels'
    # responses are constant away from the border, so STDDEV is about 0 where
    # responses are not: pooling by E[x^2] - E[x]^2 misses that by over 1e-9.
    ramp = np.tile(np.arange(12) / 11, (12, 1))
    for pixels in (rng.random((12, 12)), 0.5 + 1e-6 * rng.random((12, 12)), ramp):
        fv = bif_features(GrayImage(pixels), uneven)
        assert fv.shape == (2 * 2 * (9 + 4),)
        assert np.allclose(fv, brute_force_bif(pixels, uneven), atol=1e-9)


def test_wide_kernel_toy_matches_brute_force(rng):
    bank = build_gabor_bank(**TOY_WIDE)
    img = GrayImage(rng.random((4, 4)))
    fv = bif_features(img, bank)
    expected = brute_force_bif(img.pixels, bank)
    assert fv.shape == (2 * 3,)
    assert np.allclose(fv, expected, atol=1e-9)


def test_default_bank_matches_reference(rng):
    bank = build_gabor_bank()
    img = GrayImage(rng.random((60, 60)))
    fv = bif_features(img, bank)
    expected = brute_force_bif(img.pixels, bank, ndimage_magnitude)
    assert fv.shape == expected.shape == (bif_block(bank).dimension,)
    assert np.allclose(fv, expected, atol=1e-9)


def test_wrong_image_size_rejected(rng):
    bank = build_gabor_bank()
    with pytest.raises(DimensionMismatchError):
        bif_features(GrayImage(rng.random((59, 60))), bank)
    toy = build_gabor_bank(**TOY_SINGLE)
    with pytest.raises(DimensionMismatchError):
        bif_features(GrayImage(rng.random((60, 60))), toy)
