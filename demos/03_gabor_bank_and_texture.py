"""Texture features: the Gabor filter bank, pooled crop descriptors, and
per-landmark responses.

The bank holds quadrature (cosine/sine) kernel pairs at 16 sizes x 8
orientations.  The pooled descriptor filters an aligned 60x60 face crop,
takes the pixel-wise magnitude maximum across each band's two sizes, then
records MAX and STDDEV over overlapping grid cells.  Per-landmark responses
sample the same kind of kernels at each of the 68 landmark pixels.
"""
import numpy as np

from landmark_emotion.features.extract import bif_block, bif_features, point_texture
from landmark_emotion.features.gabor import build_gabor_bank, gabor_kernel_pair
from landmark_emotion.features.image import GrayImage, align_face
from landmark_emotion.synth import synth_shape

rng = np.random.default_rng(2)

bank = build_gabor_bank()
print("filter bank:", 2 * sum(len(b.sizes) for b in bank.bands) * bank.orientations, "kernels",
      f"({len(bank.bands)} bands x 2 sizes x {bank.orientations} orientations x 2 quadrature)")
print("band sizes:", [b.sizes for b in bank.bands])
print("pooling cells per band:", bank.cells_per_band())
even, odd = gabor_kernel_pair(21, np.pi * 3 / bank.orientations)
print("every kernel is zero-mean and unit-norm:",
      abs(even.sum()) < 1e-9, round(float((even**2).sum()), 12) == 1.0)

# --- a synthetic face image to filter ----------------------------------------
face = synth_shape("Happy", rng)
height = width = 260
yy, xx = np.mgrid[0:height, 0:width].astype(float)
pixels = 0.5 + 0.25 * np.sin(xx / 6.0) * np.cos(yy / 9.0)
for x, y in face.points:  # dark dots at the landmarks give the crop structure
    xi, yi = int(round(x)), int(round(y))
    if 1 <= xi < width - 1 and 1 <= yi < height - 1:
        pixels[yi - 1 : yi + 2, xi - 1 : xi + 2] *= 0.3
image = GrayImage(np.clip(pixels, 0.0, 1.0))

crop = align_face(image, face)
print("\naligned crop:", f"{crop.width}x{crop.height}")

pooled = bif_features(crop, bank)
print("pooled texture descriptor:", len(pooled), "values",
      "(declared dimension:", bif_block(bank).dimension, ")")
print("  value range:", round(float(pooled.min()), 4), "to", round(float(pooled.max()), 4))

texture = point_texture(image, face, scales=8, orientations=12)
print("\nper-landmark responses:", len(texture), "values (68 points x 8 scales x 12 orientations)")
flat = GrayImage(np.full((90, 90), 0.5))
zero = point_texture(flat, face, scales=2, orientations=3)
print("on a constant image every response is zero:", float(np.abs(zero).max()) <= 1e-10)
