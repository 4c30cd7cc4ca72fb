"""Gabor filter bank construction and filtering primitives.

Kernels are quadrature pairs (cosine/sine carrier under one Gaussian
envelope) restricted to a circular aperture, DC-corrected and L2-normalized.
The sigma/lambda schedule per filter size follows the classic
biologically-inspired-feature lineage:

    sigma(sz) = 0.0036*sz^2 + 0.35*sz + 0.18
    lambda(sz) = sigma(sz) / 0.8

with spatial aspect ratio 0.3.

A bank is its bands: ``DEFAULT_BANDS`` lists the eight (size pair, pooling
cell, step) bands the pipeline uses.  Kernels come from one cached builder,
``gabor_kernels``, so each (sizes, orientations) set is computed once per
process and shared by every bank and by ``point_texture``.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy import signal

from ..errors import ConfigError, DimensionMismatchError
from .image import CROP_SIZE

DEFAULT_GAMMA = 0.3


def sigma_for_size(size: int) -> float:
    return 0.0036 * size * size + 0.35 * size + 0.18


def lambda_for_size(size: int) -> float:
    return sigma_for_size(size) / 0.8


def gabor_kernel_pair(size: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Even (cosine) and odd (sine) Gabor kernels of an odd pixel size.

    Both kernels are zeroed outside the inscribed circle, shifted to zero
    mean inside it, and scaled to unit L2 norm.
    """
    if size % 2 == 0 or size < 1:
        raise ConfigError(f"filter size must be odd and positive, got {size}")
    sigma = sigma_for_size(size)
    wavelength = lambda_for_size(size)
    half = size // 2
    y, x = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    xr = x * np.cos(theta) + y * np.sin(theta)
    yr = -x * np.sin(theta) + y * np.cos(theta)
    envelope = np.exp(-(xr**2 + (DEFAULT_GAMMA * yr) ** 2) / (2.0 * sigma**2))
    mask = x**2 + y**2 <= (size / 2.0) ** 2
    phase = 2.0 * np.pi * xr / wavelength
    even = np.where(mask, envelope * np.cos(phase), 0.0)
    odd = np.where(mask, envelope * np.sin(phase), 0.0)

    def _finish(k: np.ndarray) -> np.ndarray:
        k = k - np.where(mask, k[mask].mean(), 0.0)
        norm = np.sqrt(np.sum(k**2))
        if norm > 0:
            k = k / norm
        k.flags.writeable = False
        return k

    return _finish(even), _finish(odd)


@dataclass(frozen=True)
class Band:
    """Filter sizes pooled together, plus the pooling cell geometry."""

    sizes: tuple[int, ...]
    cell: int
    step: int


# band b pools sizes (7+4b, 9+4b) over square cells of 6+2b pixels, stepped by 3+b
DEFAULT_BANDS = tuple(Band(sizes=(7 + 4 * b, 9 + 4 * b), cell=6 + 2 * b, step=3 + b) for b in range(8))


@functools.lru_cache(maxsize=None)
def gabor_kernels(
    sizes: tuple[int, ...], orientations: int
) -> Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Read-only quadrature pairs keyed by (size, orientation index), built once per process."""
    return MappingProxyType(
        {
            (size, oi): gabor_kernel_pair(size, np.pi * oi / orientations)
            for size in sizes
            for oi in range(orientations)
        }
    )


@dataclass(frozen=True)
class FilterBank:
    """Kernels for every (size, orientation) of the bands, and the crop side they pool over."""

    bands: tuple[Band, ...]
    orientations: int
    image_size: int
    kernels: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def cells_per_band(self) -> tuple[int, ...]:
        """Number of full pooling cells per band over the image grid."""
        return tuple(((self.image_size - b.cell) // b.step + 1) ** 2 for b in self.bands)


def build_gabor_bank(
    bands: tuple[Band, ...] = DEFAULT_BANDS, orientations: int = 8, image_size: int = CROP_SIZE
) -> FilterBank:
    """The quadrature kernel set for ``bands`` over a square crop of ``image_size``."""
    if orientations < 1:
        raise ConfigError("need at least one orientation")
    for band in bands:
        if band.cell < 1 or band.step < 1 or band.cell > image_size:
            raise ConfigError(f"bad pooling cell geometry ({band.cell}, {band.step})")
    sizes = tuple(sorted({size for band in bands for size in band.sizes}))
    return FilterBank(bands, orientations, image_size, gabor_kernels(sizes, orientations))


def correlate_clamp(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """'Same'-size correlation with clamp-to-edge (nearest border) padding."""
    if image.ndim != 2 or kernel.ndim != 2:
        raise DimensionMismatchError("correlate_clamp expects 2-D arrays")
    hy, hx = kernel.shape[0] // 2, kernel.shape[1] // 2
    padded = np.pad(image, ((hy, hy), (hx, hx)), mode="edge")
    return signal.fftconvolve(padded, kernel[::-1, ::-1], mode="valid")


def gabor_magnitude(image: np.ndarray, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Phase-insensitive response: sqrt(even_response^2 + odd_response^2)."""
    re = correlate_clamp(image, even)
    im = correlate_clamp(image, odd)
    return np.sqrt(re**2 + im**2)
