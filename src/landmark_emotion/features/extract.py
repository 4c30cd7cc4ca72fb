"""The four feature extractors: pairwise distances, axis offsets from the
mean shape, pooled filter-bank texture over the aligned crop, and per-landmark
filter responses.

The pooled texture filters each crop in the frequency domain: one FFT of the
edge-padded crop, then one inverse FFT per cached complex kernel spectrum
(``gabor_spectra``), and pools every (band, orientation) response over a
strided window view rather than cell by cell.

All extractors are pure functions of their inputs; repeated calls on the same
arguments return bit-identical vectors.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial.distance import pdist

from ..errors import DimensionMismatchError
from ..shapes import LandmarkSet, MeanShape, NormalizedShape
from .gabor import FilterBank, gabor_kernels, gabor_spectra
from .image import GrayImage
from .spec import FeatureBlock

POINT_TEXTURE_BASE_SIZE = 7
POINT_TEXTURE_SIZE_STEP = 4


def point_distances(shape: NormalizedShape) -> np.ndarray:
    """Euclidean distances between all unordered landmark pairs (i < j)."""
    # pdist enumerates pairs in the same lexicographic (i < j) order as pair_enumeration
    return pdist(shape.points)


def axis_distances(shape: NormalizedShape, mean: MeanShape) -> np.ndarray:
    """Interleaved (x, y) offsets of each landmark from its mean location.

    The shape must be up-righted before calling; offsets from the training
    mean are meaningless across rotations.
    """
    if shape.point_count != mean.point_count:
        raise DimensionMismatchError(
            f"shape has {shape.point_count} points, mean shape {mean.point_count}"
        )
    return (shape.points - mean.points).ravel()


def bif_block(bank: FilterBank) -> FeatureBlock:
    """The block ``bif_features`` fills for this bank."""
    cells = bank.cells_per_band()
    dimension = 2 * bank.orientations * sum(cells)
    params = (
        ("orientations", bank.orientations),
        ("bands", tuple(b.sizes for b in bank.bands)),
        ("pooling", tuple((b.cell, b.step) for b in bank.bands)),
        ("image_size", bank.image_size),
    )
    return FeatureBlock("bif", dimension, params=params)


def bif_features(image: GrayImage, bank: FilterBank) -> np.ndarray:
    """Pooled texture descriptor over the aligned crop.

    Per (band, orientation): filter with every size in the band, take the
    pixel-wise maximum of the quadrature magnitudes across sizes, then pool
    each grid cell with MAX and STDDEV.  Output order is (band, orientation,
    cell, {MAX, STDDEV}).

    Filtering is one ``fft2`` of the edge-padded crop and, per kernel, one
    ``ifft2`` of its product with the cached complex kernel spectrum; the
    magnitude of the last ``n x n`` window is the quadrature response.
    """
    n = bank.image_size
    if image.height != n or image.width != n:
        raise DimensionMismatchError(
            f"bank expects a {n}x{n} crop, got {image.width}x{image.height}"
        )
    pad, spectra = gabor_spectra(bank.bands, bank.orientations, n)
    crop_spectrum = np.fft.fft2(np.pad(image.pixels, pad, mode="edge"))
    chunks = []
    for band in bank.bands:
        for oi in range(bank.orientations):
            response = np.maximum.reduce(
                [np.abs(np.fft.ifft2(crop_spectrum * spectra[(sz, oi)])[-n:, -n:]) for sz in band.sizes]
            )
            cells = sliding_window_view(response, (band.cell, band.cell))[:: band.step, :: band.step]
            pooled = np.stack([cells.max(axis=(2, 3)), cells.std(axis=(2, 3))], axis=-1)
            chunks.append(pooled.ravel())
    return np.concatenate(chunks)


def point_texture_sizes(scales: int) -> tuple[int, ...]:
    """Odd kernel sizes used for the per-landmark responses (7, 11, 15, ...)."""
    return tuple(POINT_TEXTURE_BASE_SIZE + POINT_TEXTURE_SIZE_STEP * k for k in range(scales))


def point_texture_block(point_count: int, scales: int, orientations: int) -> FeatureBlock:
    """The block ``point_texture`` fills for this many points, scales and orientations."""
    return FeatureBlock(
        "point_texture",
        point_count * scales * orientations,
        params=(
            ("point_count", point_count),
            ("sizes", point_texture_sizes(scales)),
            ("orientations", orientations),
        ),
    )


def point_texture(
    image: GrayImage,
    landmarks: LandmarkSet,
    scales: int = 8,
    orientations: int = 12,
) -> np.ndarray:
    """Quadrature filter magnitudes centered on each landmark pixel.

    Landmarks are rounded to the nearest pixel and clamped into the image;
    patches reaching past the border repeat the nearest border pixel.
    Output order is (point, scale, orientation).
    """
    if scales < 1 or orientations < 1:
        raise DimensionMismatchError("scales and orientations must be positive")
    sizes = point_texture_sizes(scales)
    kernels = gabor_kernels(sizes, orientations)

    h, w = image.pixels.shape
    max_half = sizes[-1] // 2
    padded = np.pad(image.pixels, max_half, mode="edge")
    xs = np.clip(np.rint(landmarks.points[:, 0]).astype(np.intp), 0, w - 1) + max_half
    ys = np.clip(np.rint(landmarks.points[:, 1]).astype(np.intp), 0, h - 1) + max_half

    values = np.empty((landmarks.point_count, scales, orientations))
    for si, sz in enumerate(sizes):
        half = sz // 2
        patches = np.stack(
            [
                padded[ys[p] - half : ys[p] + half + 1, xs[p] - half : xs[p] + half + 1]
                for p in range(landmarks.point_count)
            ]
        )
        for oi in range(orientations):
            even, odd = kernels[(sz, oi)]
            re = np.tensordot(patches, even, axes=([1, 2], [0, 1]))
            im = np.tensordot(patches, odd, axes=([1, 2], [0, 1]))
            values[:, si, oi] = np.hypot(re, im)
    return values.ravel()
