"""Landmark shapes: parsing, size normalization, up-righting, mean shapes.

Walks through the geometric groundwork: read a 68-point `.pts` file, remove
location/scale/rotation, and average a population of faces into a mean shape.
"""
import numpy as np

from landmark_emotion.shapes import (
    LandmarkSet,
    centroid_size,
    eye_centers,
    mean_shape,
    normalize_size,
    parse_pts,
    upright,
    write_pts,
)
from landmark_emotion.synth import synth_shape

rng = np.random.default_rng(0)

# --- a face, serialized and parsed back --------------------------------------
face = synth_shape("Happy", rng)
text = write_pts(face)
print("A .pts file starts like this:")
print("\n".join(text.splitlines()[:6]), "\n...\n")

reparsed = parse_pts(text)
print("round trip exact:", np.array_equal(reparsed.points, face.points))
print("point count:", reparsed.point_count)

# --- size normalization -------------------------------------------------------
shape = normalize_size(face.points)  # a read-only (68, 2) array
print("\nAfter normalization:")
print("  centroid:", shape.mean(axis=0).round(12))
print("  centroid size (RMS distance):", round(centroid_size(shape), 12))
print("  scale divided out:", round(centroid_size(face.points), 3), "pixels")

# the same face, twice as large and shifted, normalizes to the same shape
doubled = LandmarkSet(face.points * 2.0 + [250.0, -80.0])
print(
    "  scale/translation invariant:",
    np.allclose(normalize_size(doubled.points), shape, atol=1e-12),
)

# --- up-righting ----------------------------------------------------------------
# the rotation removed is the angle of the line from the left to the right eye center
left, right = eye_centers(shape)
removed = np.degrees(np.arctan2(right[1] - left[1], right[0] - left[0]))
tilted = upright(shape)
left, right = eye_centers(tilted)
print("\nAfter up-righting:")
print("  rotation removed:", round(removed, 3), "degrees")
print("  eye line is horizontal:", abs(left[1] - right[1]) < 1e-12)

# --- the mean shape -------------------------------------------------------------
population = [upright(normalize_size(synth_shape("Neutral", rng).points)) for _ in range(25)]
mean = mean_shape(population)
print("\nMean of", len(population), "neutral faces:")
print("  satisfies the same invariants:", round(centroid_size(mean), 9) == 1.0)
spread = np.linalg.norm(population[0] - mean, axis=1)
print("  largest single-landmark deviation of one face:", round(float(spread.max()), 4))
