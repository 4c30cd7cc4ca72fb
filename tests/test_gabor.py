import numpy as np
import pytest

from landmark_emotion.errors import ConfigError
from landmark_emotion.features.gabor import (
    Band,
    build_gabor_bank,
    gabor_kernel_pair,
    gabor_kernels,
    lambda_for_size,
    sigma_for_size,
)


def reference_kernel_pair(size, theta, sigma, lam, gamma):
    """Independent scalar-loop reconstruction of the kernel recipe."""
    half = size // 2
    even = np.zeros((size, size))
    odd = np.zeros((size, size))
    mask = np.zeros((size, size), dtype=bool)
    for row in range(size):
        for col in range(size):
            x = col - half
            y = row - half
            if x * x + y * y > (size / 2.0) ** 2:
                continue
            mask[row, col] = True
            xr = x * np.cos(theta) + y * np.sin(theta)
            yr = -x * np.sin(theta) + y * np.cos(theta)
            envelope = np.exp(-(xr**2 + (gamma * yr) ** 2) / (2 * sigma**2))
            even[row, col] = envelope * np.cos(2 * np.pi * xr / lam)
            odd[row, col] = envelope * np.sin(2 * np.pi * xr / lam)

    def finish(k):
        k = k.copy()
        k[mask] -= k[mask].mean()
        return k / np.sqrt((k**2).sum())

    return finish(even), finish(odd)


def bank_kernels(bank):
    return gabor_kernels(tuple(size for band in bank.bands for size in band.sizes), bank.orientations)


def test_kernel_matches_reference_formula():
    size, theta = 9, np.pi / 8
    sigma, lam = sigma_for_size(size), lambda_for_size(size)
    even, odd = gabor_kernel_pair(size, theta)
    ref_even, ref_odd = reference_kernel_pair(size, theta, sigma, lam, 0.3)
    assert np.allclose(even, ref_even, atol=1e-12)
    assert np.allclose(odd, ref_odd, atol=1e-12)


def test_default_bank_counts():
    bank = build_gabor_bank()
    # 8 bands x 2 sizes x 8 orientations x 2 quadrature components
    assert 2 * len(bank_kernels(bank)) == 256
    assert len(bank.bands) == 8
    assert bank.bands[0].sizes == (7, 9)
    assert bank.bands[-1].sizes == (35, 37)
    assert bank.orientations == 8


def test_kernels_dc_corrected_and_normalized():
    bank = build_gabor_bank()
    for (size, oi), (even, odd) in bank_kernels(bank).items():
        assert abs(even.sum()) <= 1e-9, (size, oi)
        assert abs(odd.sum()) <= 1e-9, (size, oi)
        assert np.sqrt((even**2).sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.sqrt((odd**2).sum()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("size", [7, 21])
@pytest.mark.parametrize("theta", [0.0, np.pi / 8, 3 * np.pi / 5])
def test_orientation_pi_symmetry(size, theta):
    even_a, odd_a = gabor_kernel_pair(size, theta)
    even_b, odd_b = gabor_kernel_pair(size, theta + np.pi)
    assert np.allclose(even_a, even_b, atol=1e-12)
    assert np.allclose(odd_a, -odd_b, atol=1e-12)


def test_even_size_rejected():
    with pytest.raises(ConfigError):
        gabor_kernel_pair(8, 0.0)
    with pytest.raises(ConfigError):
        build_gabor_bank((Band(sizes=(6, 8), cell=4, step=2),))


def test_sigma_lambda_schedule():
    # classic size/sigma/lambda schedule values for the first filter sizes
    for size, sigma, lam in [(7, 2.8, 3.5), (9, 3.6, 4.6), (11, 4.5, 5.6)]:
        assert sigma_for_size(size) == pytest.approx(sigma, abs=0.06)
        assert lambda_for_size(size) == pytest.approx(lam, abs=0.08)


def test_bad_configs():
    with pytest.raises(ConfigError):
        build_gabor_bank(orientations=0)
    with pytest.raises(ConfigError):
        build_gabor_bank((Band(sizes=(7, 9), cell=61, step=3),))  # cell wider than the crop
