import numpy as np
import pytest

from landmark_emotion.errors import DimensionMismatchError
from landmark_emotion.features.spec import FeatureSpec, merge_specs, pair_enumeration
from landmark_emotion.learners.dataset import LabeledDataset


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
    assert FeatureSpec.distances(68).total_dimension == 2278
    assert FeatureSpec.axis(68).total_dimension == 136
    assert FeatureSpec.distances(4).total_dimension == 6


@pytest.mark.parametrize(
    "X, match",
    [
        (np.array([[1.0, np.nan, 0, 0, 0, 0]]), "finite"),
        (np.array([[1.0, 0, 0, 0, 0, np.inf]]), "finite"),
        (np.zeros((1, 5)), "columns"),
    ],
    ids=["nan", "inf", "width"],
)
def test_labeled_dataset_rejects_bad_rows(X, match):
    spec = FeatureSpec.distances(4)
    assert len(LabeledDataset(X=np.zeros((1, 6)), y=[0], spec=spec)) == 1
    with pytest.raises(DimensionMismatchError, match=match):
        LabeledDataset(X=X, y=[0], spec=spec)


def test_merged_spec_block_offsets():
    spec = merge_specs([FeatureSpec.axis(68), FeatureSpec.distances(68)])
    offset, block = spec.block_offset("distances")
    assert offset == 136
    assert block.dimension == 2278
    assert spec.pair_index is not None and len(spec.pair_index) == 2278
    assert spec.has_block("axis") and not spec.has_block("bif")


def test_digest_tracks_layout():
    a = FeatureSpec.distances(68)
    b = FeatureSpec.distances(68)
    c = FeatureSpec.distances(67)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert a.digest() != FeatureSpec.axis(68).digest()
    assert "distances" in a.to_text()
