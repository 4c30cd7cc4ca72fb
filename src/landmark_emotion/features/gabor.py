"""Gabor filter bank construction and the kernel spectra texture filtering uses.

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
process and shared by ``gabor_spectra`` and ``point_texture``.  ``gabor_spectra``
turns a bank's kernels into the 2-D spectra of the complex kernels
``even + i*odd`` on the edge-padded crop's grid, also once per process, so
``bif_features`` filters a crop with one forward FFT and one inverse FFT per
kernel.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..errors import ConfigError
from .image import CROP_SIZE

DEFAULT_GAMMA = 0.3


def sigma_for_size(size: int) -> float:
    return 0.0036 * size * size + 0.35 * size + 0.18


def lambda_for_size(size: int) -> float:
    return sigma_for_size(size) / 0.8


def _check_size(size: int) -> None:
    if size % 2 == 0 or size < 1:
        raise ConfigError(f"filter size must be odd and positive, got {size}")


def gabor_kernel_pair(size: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Even (cosine) and odd (sine) Gabor kernels of an odd pixel size.

    Both kernels are zeroed outside the inscribed circle, shifted to zero
    mean inside it, and scaled to unit L2 norm.
    """
    _check_size(size)
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
    """The bands, their orientation count, and the crop side they pool over."""

    bands: tuple[Band, ...]
    orientations: int
    image_size: int

    def cells_per_band(self) -> tuple[int, ...]:
        """Number of full pooling cells per band over the image grid."""
        return tuple(((self.image_size - b.cell) // b.step + 1) ** 2 for b in self.bands)


def build_gabor_bank(
    bands: tuple[Band, ...] = DEFAULT_BANDS, orientations: int = 8, image_size: int = CROP_SIZE
) -> FilterBank:
    """The checked bank geometry for ``bands`` over a square crop of ``image_size``."""
    if orientations < 1:
        raise ConfigError("need at least one orientation")
    for band in bands:
        if band.cell < 1 or band.step < 1 or band.cell > image_size:
            raise ConfigError(f"bad pooling cell geometry ({band.cell}, {band.step})")
    for size in _band_sizes(bands):
        _check_size(size)
    return FilterBank(bands, orientations, image_size)


def _band_sizes(bands: tuple[Band, ...]) -> tuple[int, ...]:
    return tuple(sorted({size for band in bands for size in band.sizes}))


@functools.lru_cache(maxsize=None)
def gabor_spectra(
    bands: tuple[Band, ...], orientations: int, image_size: int
) -> tuple[int, Mapping[tuple[int, int], np.ndarray]]:
    """Edge padding and read-only kernel spectra for filtering an ``image_size`` crop.

    The crop is edge-padded by the largest kernel half-size ``pad``.  Each
    spectrum, keyed by (size, orientation index), is the ``fft2`` of the
    flipped complex kernel ``even + i*odd``, centred in a (2*pad+1) box and
    zero-filled to the padded side.  The inverse FFT of the padded crop's
    spectrum times it holds the clamp-to-edge correlations with ``even``
    (real part) and ``odd`` (imaginary part) in its last ``image_size`` rows
    and columns, free of circular wrap-around.
    """
    sizes = _band_sizes(bands)
    pad = sizes[-1] // 2
    side = image_size + 2 * pad
    spectra = {}
    for (size, oi), (even, odd) in gabor_kernels(sizes, orientations).items():
        flipped = np.pad((even + 1j * odd)[::-1, ::-1], pad - size // 2)
        spectrum = np.fft.fft2(flipped, s=(side, side))
        spectrum.flags.writeable = False
        spectra[(size, oi)] = spectrum
    return pad, MappingProxyType(spectra)
