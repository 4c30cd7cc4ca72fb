"""The four feature extractors: pairwise distances, axis offsets from the
mean shape, pooled filter-bank texture over the aligned crop, and per-landmark
filter responses.

The two shape families take a (..., n, 2) stack of up-righted shapes and
return one row per shape, so one call measures every face of a split.

The pooled texture filters each crop in the frequency domain: one FFT of the
edge-padded crop, then per cached complex kernel spectrum (``gabor_spectra``)
an inverse FFT pruned to the response window: the row pass runs over every
row but keeps only the last ``n`` columns, and the column pass runs over those
columns only.  It pools a band's responses, all orientations at once, from
g x g tiles (g = gcd(cell, step)): each window's MAX is the max of its tiles'
maxima, and its STDDEV merges the tiles' means and sums of squared deviations
(Chan, Golub & LeVeque), never ``E[x^2] - E[x]^2``.  ``point_texture`` takes
each scale's patches at every landmark as one array and correlates them with
all even and odd kernels in one ``einsum``, which calls no BLAS.

All extractors are pure functions of their inputs; repeated calls on the same
arguments return bit-identical vectors.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DimensionMismatchError
from ..shapes import LandmarkSet
from .gabor import FilterBank, gabor_kernels, gabor_spectra
from .image import GrayImage
from .spec import FeatureBlock

POINT_TEXTURE_BASE_SIZE = 7
POINT_TEXTURE_SIZE_STEP = 4
# the pipeline's fixed point_texture filter set, as bif's is fixed by DEFAULT_BANDS
POINT_TEXTURE_SCALES = 8
POINT_TEXTURE_ORIENTATIONS = 12


def point_distances(shape: np.ndarray) -> np.ndarray:
    """Euclidean distances between all unordered pairs (i < j) of normalized points, per shape.

    Pairs run in the lexicographic (i < j) order of ``pair_enumeration``.  Each
    distance is ``sqrt(dx*dx + dy*dy)``, the floats ``scipy``'s ``pdist`` gives.
    """
    n = shape.shape[-2]
    i, j = np.triu_indices(n, 1)
    faces = shape.reshape(-1, n, 2)
    out = np.empty((len(faces), len(i)))
    # 8 faces at a time keep the pair differences in cache, and their memory small
    for start in range(0, len(faces), 8):
        chunk, rows = faces[start : start + 8], out[start : start + 8]
        diff = np.take(chunk, i, axis=1)
        diff -= np.take(chunk, j, axis=1)
        diff *= diff
        np.add(diff[..., 0], diff[..., 1], out=rows)
        np.sqrt(rows, out=rows)
    return out.reshape(shape.shape[:-2] + (len(i),))


def axis_distances(shape: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Interleaved (x, y) offsets of each landmark from its mean location, per shape.

    ``mean`` is (n, 2) points, one row per landmark.  The shapes must be
    up-righted before calling; offsets from the training mean are
    meaningless across rotations.
    """
    if mean.shape != shape.shape[-2:]:
        raise DimensionMismatchError(f"shape points are {shape.shape[-2:]}, mean shape {mean.shape}")
    return (shape - mean).reshape(shape.shape[:-2] + (-1,))


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

    Filtering is one ``fft2`` of the edge-padded crop and, per kernel, the
    inverse FFT of its product with the cached complex kernel spectrum; the
    magnitude of the last ``n x n`` window is the quadrature response.  The
    inverse runs as its two 1-D passes, each keeping only what that window
    needs, which gives the bits ``ifft2`` would.
    """
    n = bank.image_size
    if image.height != n or image.width != n:
        raise DimensionMismatchError(
            f"bank expects a {n}x{n} crop, got {image.width}x{image.height}"
        )
    pad, spectra = gabor_spectra(bank.bands, bank.orientations, n)
    crop_spectrum = np.fft.fft2(np.pad(image.pixels, pad, mode="edge"))

    def response(size: int, oi: int) -> np.ndarray:
        rows = np.fft.ifft(crop_spectrum * spectra[(size, oi)], axis=1)[:, -n:]
        return np.abs(np.fft.ifft(rows, axis=0)[-n:])

    chunks = []
    for band in bank.bands:
        responses = np.stack(
            [np.maximum.reduce([response(size, oi) for size in band.sizes]) for oi in range(bank.orientations)]
        )
        chunks.append(_pool_max_std(responses, band.cell, band.step).ravel())
    return np.concatenate(chunks)


def _pool_max_std(responses: np.ndarray, cell: int, step: int) -> np.ndarray:
    """MAX and STDDEV of every ``cell x cell`` window at stride ``step``, per response.

    ``responses`` is (m, n, n); the result is (m, windows, windows, 2).  Windows
    are unions of g x g tiles, g = gcd(cell, step), so each pixel is read into
    one tile's max, mean and sum of squared deviations ``M2``, and a window
    combines its tiles: ``M2 = sum(M2_t) + g^2 * sum((mean_t - mean)^2)``.
    """
    g = math.gcd(cell, step)
    span, stride = cell // g, step // g
    count = (responses.shape[-1] - cell) // step + 1
    tiles = (count - 1) * stride + span
    m = responses.shape[0]
    x = responses[:, : tiles * g, : tiles * g].reshape(m, tiles, g, tiles, g).transpose(0, 1, 3, 2, 4)
    x = x.reshape(m, tiles, tiles, g * g)
    tile_mean = x.mean(axis=-1)
    tile_m2 = ((x - tile_mean[..., None]) ** 2).sum(axis=-1)
    end = (count - 1) * stride + 1

    def windows(per_tile: np.ndarray) -> list[np.ndarray]:
        """Per tile offset in a window, that tile of every window."""
        return [
            per_tile[:, dy : dy + end : stride, dx : dx + end : stride]
            for dy in range(span)
            for dx in range(span)
        ]

    means = windows(tile_mean)
    mean = sum(means) / (span * span)
    m2 = sum(windows(tile_m2)) + g * g * sum((tile - mean) ** 2 for tile in means)
    return np.stack([np.maximum.reduce(windows(x.max(axis=-1))), np.sqrt(m2 / (cell * cell))], axis=-1)


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
    scales: int = POINT_TEXTURE_SCALES,
    orientations: int = POINT_TEXTURE_ORIENTATIONS,
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
        patches = sliding_window_view(padded, (sz, sz))[ys - half, xs - half].reshape(-1, sz * sz)
        pairs = [kernels[(sz, oi)] for oi in range(orientations)]
        filters = np.stack([even for even, _ in pairs] + [odd for _, odd in pairs]).reshape(-1, sz * sz)
        # einsum, not a matrix product: BLAS may split that across threads and move its last bits
        products = np.einsum("pk,ok->po", patches, filters)
        values[:, si] = np.hypot(products[:, :orientations], products[:, orientations:])
    return values.ravel()
