"""Emotion recognition from 68-point facial landmarks.

The package normalizes landmark shapes, extracts four feature families
(pairwise distances, axis offsets from the training mean, pooled filter-bank
texture, per-landmark filter responses), trains one-vs-one RBF SVMs and
multiclass gradient-boosting models from first principles, and produces
confusion-matrix, accuracy, and feature-influence reports.
"""

__version__ = "0.1.0"
