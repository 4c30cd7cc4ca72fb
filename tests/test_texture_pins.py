"""Pins for what a refactor of the texture families must not move.

Model files store the FeatureSpec digest, so a changed digest would make
every saved model fail to load.  The digests hash text, so the values below
hold on every platform.  Texture values must also not depend on the BLAS
thread count, or model bytes would.
"""
from itertools import combinations

import numpy as np
import pytest

from conftest import outputs_under_blas_threads
from landmark_emotion.features.extract import point_texture_sizes
from landmark_emotion.features.gabor import build_gabor_bank, gabor_kernel_pair, gabor_kernels
from landmark_emotion.pipeline import FEATURE_FAMILIES, PipelineConfig, build_feature_spec

SPEC_DIGESTS = {
    "distances": "48ce1c233167d8fc5edd645fdcb297b70cb3d4c7ae8da67a03ec21e3c431dd0e",
    "axis": "2a686e08fcac03fae349ab9b762991a0e2942b3001376f8eb6a2e2e8a0553459",
    "bif": "3cdbafe168e192b94486c9bb936cff203a4494f42f93a844e9147af3023caaef",
    "point_texture": "65b515e3b4953d5538f41d7a0b11c70e6b12598d29852e37a4c0a5ab3227343e",
    "distances,axis": "f01a2e3eedd60aca24207b849953716e02b6c50aabba011b794a19069b6a2328",
    "distances,bif": "daa55f959edce9768af1781b5b0e03eab4890631542d989dff124f0fb061a90e",
    "distances,point_texture": "349f51812754b455f9c20a66f16000ebfa263ad355e226b42628a58fd6656e04",
    "axis,bif": "3d5f49ec00c44b2c38b8aa4a2161640587a9bca65a89befa7895c554d64dc1cb",
    "axis,point_texture": "6e9b292cedb1859a94c64e40630776e412d6142836f8f5632295eff76816c368",
    "bif,point_texture": "d002d7bf322eea1c364aae7237f413656f597311834e884378caca8079431cae",
    "distances,axis,bif": "d41c22e51d0894341a5bff944eae26eca5faf8474c07d0bfa1aafd69b7003bd6",
    "distances,axis,point_texture": "2b71d2c3c89e32aabc182b8cf6725a119789075a31430d11609970aa64f3c1e6",
    "distances,bif,point_texture": "15dee3ab10066c9f549ee76337e63781a7cf5b89e39d8db3d0fe696d3184bd45",
    "axis,bif,point_texture": "170abe63810aa25b5a9898522d6f3e86258a16169f49af7f4a4af52e74d307cc",
    "distances,axis,bif,point_texture": "14e4ce5f8ae692d1c4c0c427fa64f66b264ccb5a18e527d644f7d43e8f6611df",
}


def test_every_family_combination_is_pinned():
    combos = {",".join(c) for r in range(1, 5) for c in combinations(FEATURE_FAMILIES, r)}
    assert combos == set(SPEC_DIGESTS)


@pytest.mark.parametrize("features", sorted(SPEC_DIGESTS))
def test_spec_digest_pinned(features):
    config = PipelineConfig(features=tuple(features.split(",")))
    assert build_feature_spec(config).digest() == SPEC_DIGESTS[features]


def test_default_bands_pinned():
    bank = build_gabor_bank()
    assert [(b.sizes, b.cell, b.step) for b in bank.bands] == [
        ((7, 9), 6, 3),
        ((11, 13), 8, 4),
        ((15, 17), 10, 5),
        ((19, 21), 12, 6),
        ((23, 25), 14, 7),
        ((27, 29), 16, 8),
        ((31, 33), 18, 9),
        ((35, 37), 20, 10),
    ]
    assert (bank.orientations, bank.image_size) == (8, 60)


def _assert_kernels_are_the_recipe(kernels, sizes, orientations):
    assert set(kernels) == {(size, oi) for size in sizes for oi in range(orientations)}
    for (size, oi), (even, odd) in kernels.items():
        ref_even, ref_odd = gabor_kernel_pair(size, np.pi * oi / orientations)
        assert np.array_equal(even, ref_even) and np.array_equal(odd, ref_odd), (size, oi)


def test_bank_kernels_are_the_recipe():
    bank = build_gabor_bank()
    sizes = tuple(size for band in bank.bands for size in band.sizes)
    _assert_kernels_are_the_recipe(gabor_kernels(sizes, bank.orientations), sizes, bank.orientations)


def test_point_texture_kernels_are_the_recipe():
    sizes = point_texture_sizes(8)
    _assert_kernels_are_the_recipe(gabor_kernels(sizes, 12), sizes, 12)


_TEXTURE_SCRIPT = """
import hashlib
import numpy as np
from landmark_emotion.features.extract import bif_features, point_texture
from landmark_emotion.features.gabor import build_gabor_bank
from landmark_emotion.features.image import GrayImage
from landmark_emotion.shapes import LandmarkSet
from landmark_emotion.synth import face_template
pixels = np.random.default_rng(0).random((240, 240))
face = LandmarkSet(face_template())
print(hashlib.sha256(bif_features(GrayImage(pixels[90:150, 90:150]), build_gabor_bank()).tobytes()).hexdigest())
print(hashlib.sha256(point_texture(GrayImage(pixels), face).tobytes()).hexdigest())
"""


def test_texture_bytes_do_not_depend_on_blas_threads():
    one, two = outputs_under_blas_threads(_TEXTURE_SCRIPT)
    assert one == two
