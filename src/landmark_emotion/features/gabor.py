"""Gabor filter bank construction and filtering primitives.

Kernels are quadrature pairs (cosine/sine carrier under one Gaussian
envelope) restricted to a circular aperture, DC-corrected and L2-normalized.
The sigma/lambda schedule per filter size follows the classic
biologically-inspired-feature lineage:

    sigma(sz) = 0.0036*sz^2 + 0.35*sz + 0.18
    lambda(sz) = sigma(sz) / 0.8

with spatial aspect ratio 0.3.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from ..errors import ConfigError, DimensionMismatchError

DEFAULT_GAMMA = 0.3
DEFAULT_SIZES = tuple(range(7, 38, 2))  # 16 odd sizes, paired into 8 bands


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


@dataclass(frozen=True)
class GaborBankConfig:
    """Geometry of a filter bank.

    ``bands`` defaults to consecutive pairs of ``sizes``; ``pooling``
    defaults to square cells of 6 + 2b pixels for band b with 50% overlap.
    ``image_size`` is the square crop side the bank filters (60 in the
    reference configuration).
    """

    orientations: int = 8
    sizes: tuple[int, ...] = DEFAULT_SIZES
    bands: tuple[tuple[int, ...], ...] | None = None
    pooling: tuple[tuple[int, int], ...] | None = None
    image_size: int = 60

    def resolved_bands(self) -> tuple[Band, ...]:
        if self.bands is not None:
            groups = self.bands
        else:
            if len(self.sizes) % 2 != 0:
                raise ConfigError("default banding pairs sizes; need an even count")
            groups = tuple(
                (self.sizes[i], self.sizes[i + 1]) for i in range(0, len(self.sizes), 2)
            )
        if self.pooling is not None:
            pooling = self.pooling
            if len(pooling) != len(groups):
                raise ConfigError("pooling geometry count must match band count")
        else:
            pooling = tuple((6 + 2 * b, (6 + 2 * b) // 2) for b in range(len(groups)))
        bands = []
        for group, (cell, step) in zip(groups, pooling):
            if cell < 1 or step < 1 or cell > self.image_size:
                raise ConfigError(f"bad pooling cell geometry ({cell}, {step})")
            bands.append(Band(sizes=tuple(group), cell=cell, step=step))
        return tuple(bands)


@dataclass(frozen=True)
class FilterBank:
    """Built kernels for every (size, orientation), with band/pooling layout."""

    config: GaborBankConfig
    bands: tuple[Band, ...]
    # kernels[(size, orientation_index)] = (even, odd)
    kernels: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @property
    def orientations(self) -> int:
        return self.config.orientations

    @property
    def image_size(self) -> int:
        return self.config.image_size

    def cells_per_band(self) -> tuple[int, ...]:
        """Number of full pooling cells per band over the image grid."""
        counts = []
        for band in self.bands:
            per_axis = (self.image_size - band.cell) // band.step + 1
            if per_axis < 1:
                raise ConfigError(f"pooling cell {band.cell} exceeds image size {self.image_size}")
            counts.append(per_axis * per_axis)
        return tuple(counts)


def build_gabor_bank(config: GaborBankConfig = GaborBankConfig()) -> FilterBank:
    """Construct the quadrature kernel set described by ``config``."""
    if config.orientations < 1:
        raise ConfigError("need at least one orientation")
    bands = config.resolved_bands()
    sizes = sorted({sz for band in bands for sz in band.sizes})
    kernels = {
        (sz, oi): gabor_kernel_pair(sz, np.pi * oi / config.orientations)
        for sz in sizes
        for oi in range(config.orientations)
    }
    return FilterBank(config=config, bands=bands, kernels=kernels)


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
