"""Feature extraction: geometry, filter banks, aligned crops, texture."""

from .extract import (
    axis_distances,
    bif_block,
    bif_features,
    point_distances,
    point_texture,
    point_texture_block,
    point_texture_sizes,
)
from .gabor import (
    Band,
    FilterBank,
    build_gabor_bank,
    gabor_kernel_pair,
)
from .image import (
    CROP_SIZE,
    GrayImage,
    SimilarityTransform,
    align_face,
    bilinear_sample,
    fit_similarity,
    read_pgm,
    warp_similarity,
    write_pgm,
)
from .spec import FeatureBlock, FeatureSpec, pair_enumeration

__all__ = [
    "Band",
    "CROP_SIZE",
    "FeatureBlock",
    "FeatureSpec",
    "FilterBank",
    "GrayImage",
    "SimilarityTransform",
    "align_face",
    "axis_distances",
    "bif_block",
    "bif_features",
    "bilinear_sample",
    "build_gabor_bank",
    "fit_similarity",
    "gabor_kernel_pair",
    "pair_enumeration",
    "point_distances",
    "point_texture",
    "point_texture_block",
    "point_texture_sizes",
    "read_pgm",
    "warp_similarity",
    "write_pgm",
]
