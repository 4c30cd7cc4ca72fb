import numpy as np
import pytest

from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.features.extract import point_texture_block
from landmark_emotion.features.spec import FeatureSpec, pair_enumeration
from landmark_emotion.learners.dataset import LabeledDataset
from landmark_emotion.pipeline import PipelineConfig, build_feature_spec


def spec_of(*families, **config):
    return build_feature_spec(PipelineConfig(features=families, **config))


def test_pair_enumeration_count_and_order():
    pairs = pair_enumeration(68)
    assert len(pairs) == 2278  # C(68, 2)
    assert tuple(pairs[0]) == (0, 1)
    assert tuple(pairs[1]) == (0, 2)
    assert tuple(pairs[66]) == (0, 67)
    assert tuple(pairs[67]) == (1, 2)
    assert tuple(pairs[-1]) == (66, 67)
    # lexicographic, i < j, no duplicates
    as_tuples = [tuple(p) for p in pairs]
    assert as_tuples == sorted(set(as_tuples))
    assert all(i < j for i, j in as_tuples)


def test_pair_enumeration_small():
    assert [tuple(p) for p in pair_enumeration(4)] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


def test_spec_dimensions():
    assert spec_of("distances").total_dimension == 2278
    assert spec_of("axis").total_dimension == 136
    assert spec_of("point_texture").total_dimension == 6528


@pytest.mark.parametrize(
    "X",
    [np.array([[1.0, np.nan, 0, 0, 0, 0]]), np.array([[1.0, 0, 0, 0, 0, np.inf]])],
    ids=["nan", "inf"],
)
def test_labeled_dataset_rejects_bad_rows(X):
    assert len(LabeledDataset(X=np.zeros((1, 6)), y=[0])) == 1
    with pytest.raises(LandmarkEmotionError, match="finite"):
        LabeledDataset(X=X, y=[0])


def test_merged_spec_block_offsets():
    spec = spec_of("point_texture", "axis", "distances")
    assert spec.block_offset("distances") == (0, spec.blocks[0])
    offset, block = spec.block_offset("axis")
    assert offset == 2278
    assert block.dimension == 136
    assert spec.block_offset("point_texture")[0] == 2278 + 136
    with pytest.raises(KeyError):
        spec.block_offset("bif")


def test_digest_tracks_layout():
    a = spec_of("distances")
    b = spec_of("distances")
    assert a.digest() == b.digest()
    assert a.digest() != spec_of("axis").digest()
    assert a.digest() != spec_of("distances", "axis").digest()
    texture = FeatureSpec(blocks=(point_texture_block(68, 8, 12),))
    assert texture.digest() == spec_of("point_texture").digest()
    assert texture.digest() != FeatureSpec(blocks=(point_texture_block(68, 7, 12),)).digest()
    assert texture.digest() != FeatureSpec(blocks=(point_texture_block(68, 8, 11),)).digest()
    assert "distances" in a.to_text()
