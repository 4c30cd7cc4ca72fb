"""Shape features: pairwise landmark distances and axis offsets from the mean.

The 68 landmarks give C(68,2) = 2278 unique pair distances; the axis family
measures per-landmark (x, y) displacement from the training-population mean,
2 * 68 = 136 values.  Distances are invariant to similarity transforms by
construction, which this script demonstrates numerically.
"""
import numpy as np

from landmark_emotion.features import axis_distances, pair_enumeration, point_distances
from landmark_emotion.pipeline import PipelineConfig, build_feature_spec
from landmark_emotion.shapes import LandmarkSet, mean_shape, normalize_size, upright
from landmark_emotion.synth import synth_shape

rng = np.random.default_rng(1)

shape = upright(normalize_size(synth_shape("Surprise", rng).points))
pairs = pair_enumeration(68)
distances = point_distances(shape)
print("distance features:", len(distances), "values")
print("  first pairs:", [(int(i), int(j)) for i, j in pairs[:4]])
print("  e.g. distance between mouth corners (48, 54):")
k = [tuple(p) for p in pairs].index((48, 54))
print("   ", round(float(distances[k]), 4), "(in centroid-size units)")

# similarity invariance: rotate, scale, translate, re-extract
angle, scale = 0.7, 3.1
rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
moved = LandmarkSet(scale * synth_shape("Surprise", np.random.default_rng(1)).points @ rot.T + 40.0)
again = point_distances(normalize_size(moved.points))
print("  after a random similarity transform, worst change:",
      f"{np.abs(distances - again).max():.2e}")

# axis features need the training mean
population = [upright(normalize_size(synth_shape("Neutral", rng).points)) for _ in range(30)]
mean = mean_shape(population)
axis = axis_distances(shape, mean)
print("\naxis features:", len(axis), "values (x and y offsets, interleaved)")
biggest = int(np.argmax(np.abs(axis)))
print(f"  largest offset at coordinate {biggest} -> landmark {biggest // 2},",
      "x" if biggest % 2 == 0 else "y", "axis")

# build_feature_spec alone assembles the layout; the values are plain arrays
combined = np.concatenate([distances, axis])
combined_spec = build_feature_spec(PipelineConfig(features=("distances", "axis")))
print("\nconcatenated feature vector:", len(combined), "values")
print("  blocks:", [f"{b.extractor}({b.dimension})" for b in combined_spec.blocks])
