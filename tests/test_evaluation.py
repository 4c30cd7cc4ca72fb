import numpy as np
import pytest

from landmark_emotion.errors import DimensionMismatchError
from landmark_emotion.evaluation import (
    ConfusionMatrix,
    accuracy_line,
    confusion,
    influence_report,
    overall_accuracy,
    per_class_accuracy,
    per_class_text,
)
from landmark_emotion.features.spec import FeatureBlock, FeatureSpec, pair_enumeration
from landmark_emotion.learners.dataset import CLASSES, LabeledDataset
from landmark_emotion.learners.gb import gb_train

# reference 7-class confusion-matrix fixture with hand-checkable arithmetic;
# class order Angry, Disgust, Fear, Happy, Neutral, Sad, Surprise
TABLE3 = np.array(
    [
        [29, 1, 4, 5, 10, 7, 13],
        [3, 0, 0, 6, 4, 4, 0],
        [13, 0, 1, 3, 13, 6, 5],
        [5, 0, 0, 67, 7, 16, 0],
        [3, 0, 1, 3, 40, 9, 2],
        [9, 0, 5, 5, 12, 16, 8],
        [8, 0, 2, 0, 6, 0, 21],
    ]
)


def test_table3_row_sums():
    cm = ConfusionMatrix(counts=TABLE3)
    assert list(cm.counts.sum(axis=1)) == [69, 17, 41, 95, 58, 55, 37]
    assert cm.total == 372


def test_table3_overall_accuracy():
    cm = ConfusionMatrix(counts=TABLE3)
    acc = overall_accuracy(cm)
    assert acc == 174 / 372
    assert round(100 * acc, 1) == 46.8
    assert "46.8%" in accuracy_line(cm)


def test_table3_per_class_percentages():
    cm = ConfusionMatrix(counts=TABLE3)
    recalls = per_class_accuracy(cm)
    rounded = [round(100 * r) for r in recalls]
    # Angry, Disgust, Fear, Happy, Neutral, Sad, Surprise
    assert rounded == [42, 0, 2, 71, 69, 29, 57]


def test_confusion_perfect_diagonal():
    labels = ["Angry", "Happy", "Sad", "Happy", "Neutral"]
    cm = confusion(labels, labels)
    assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)
    assert overall_accuracy(cm) == 1.0


def test_confusion_single_sample():
    cm = confusion(["Sad"], ["Happy"])
    assert cm.total == 1
    assert cm.counts[CLASSES.index("Happy"), CLASSES.index("Sad")] == 1


def test_confusion_errors():
    with pytest.raises(DimensionMismatchError):
        confusion(["Happy"], ["Happy", "Sad"])
    with pytest.raises(DimensionMismatchError):
        confusion([], [])
    with pytest.raises(DimensionMismatchError):
        overall_accuracy(ConfusionMatrix(counts=np.zeros((7, 7), dtype=int)))


def test_zero_diagonal_accuracy():
    counts = np.zeros((7, 7), dtype=int)
    counts[0, 1] = 5
    assert overall_accuracy(ConfusionMatrix(counts=counts)) == 0.0


def test_per_class_empty_row_is_none():
    counts = np.zeros((7, 7), dtype=int)
    counts[0, 0] = 3
    counts[3, 3] = 2
    counts[3, 0] = 2
    recalls = per_class_accuracy(ConfusionMatrix(counts=counts))
    assert recalls[0] == 1.0
    assert recalls[3] == 0.5
    assert recalls[1] is None
    assert "n/a" in per_class_text(ConfusionMatrix(counts=counts))


def test_confusion_permutation_invariant(rng):
    pred = [CLASSES[i] for i in rng.integers(0, 7, size=60)]
    truth = [CLASSES[i] for i in rng.integers(0, 7, size=60)]
    cm = confusion(pred, truth)
    perm = rng.permutation(60)
    cm2 = confusion([pred[i] for i in perm], [truth[i] for i in perm])
    assert np.array_equal(cm.counts, cm2.counts)


def test_accuracy_equals_mean_agreement(rng):
    for _ in range(10):
        pred = rng.integers(0, 7, size=37)
        truth = rng.integers(0, 7, size=37)
        cm = confusion(list(pred), list(truth))
        assert overall_accuracy(cm) == np.mean(pred == truth)


def test_matrix_rendering():
    cm = ConfusionMatrix(counts=TABLE3)
    text = cm.to_text()
    assert "Angry" in text and "Surprise" in text
    assert text.count("\n") == 8
    machine = cm.to_machine_text()
    assert "Happy\tHappy\t67" in machine


# --- influence report ---------------------------------------------------------


def landmark_block(extractor, dimension, point_count):
    return FeatureBlock(extractor, dimension, (("point_count", point_count),))


def distance_block(point_count):
    return landmark_block("distances", point_count * (point_count - 1) // 2, point_count)


def distance_feature_dataset(rng, n=90, point_count=10, signal_pair=(2, 7)):
    """Feature-space construction: every coordinate is noise except the
    designated pair's distance, which the label is a function of."""
    spec = FeatureSpec(blocks=(distance_block(point_count),))
    pairs = [tuple(p) for p in pair_enumeration(point_count)]
    k_star = pairs.index(signal_pair)
    X = rng.uniform(0.5, 2.0, size=(n, spec.total_dimension))
    bins = np.digitize(X[:, k_star], [1.0, 1.5])
    y = np.array([0, 3, 4])[bins]
    return LabeledDataset(X=X, y=y), spec, k_star


def test_influence_report_ranks_signal_pair_first(rng):
    ds, spec, _ = distance_feature_dataset(rng)
    model = gb_train(ds, ds, max_trees=12)
    report = influence_report(model, spec, top_k=5)
    assert report.pairs[0] == (2, 7)
    assert report.shares[0] > 0
    assert all(report.shares[i] >= report.shares[i + 1] for i in range(len(report.shares) - 1))


def test_influence_shares_bounded_and_complete(rng):
    ds, spec, _ = distance_feature_dataset(rng, n=60)
    model = gb_train(ds, ds, max_trees=8)
    full = influence_report(model, spec, top_k=spec.total_dimension)
    assert sum(full.shares) <= 1.0 + 1e-9
    assert sum(full.shares) == pytest.approx(full.distance_share, abs=1e-12)
    assert full.distance_share == pytest.approx(1.0, abs=1e-9)  # only block present
    assert full.other_share == pytest.approx(0.0, abs=1e-12)
    assert "landmarks (2, 7)" in full.to_text()


def test_influence_single_used_pair(rng):
    # classifiable by exactly one pair's distance and nothing else: the
    # report must give that pair the full share
    ds, spec, k_star = distance_feature_dataset(rng, n=40)
    X = ds.X.copy()
    keep = X[:, k_star]
    X = np.full_like(X, 1.0)
    X[:, k_star] = keep
    ds2 = LabeledDataset(X=X, y=ds.y)
    model = gb_train(ds2, ds2, max_trees=4)
    report = influence_report(model, spec, top_k=3)
    assert report.pairs[0] == (2, 7)
    assert report.shares[0] == pytest.approx(1.0, abs=1e-9)


def test_influence_requires_distance_block(rng):
    spec = FeatureSpec(blocks=(landmark_block("axis", 20, 10),))
    ds = LabeledDataset(X=rng.random((20, 20)), y=np.array([0, 3] * 10))
    model = gb_train(ds, ds, max_trees=2)
    with pytest.raises(DimensionMismatchError):
        influence_report(model, spec, top_k=3)


def test_influence_with_merged_spec(rng):
    # distance block offset inside a multi-block spec must be honored
    spec = FeatureSpec(blocks=(landmark_block("axis", 8, 4), distance_block(4)))
    n = 50
    X = rng.uniform(0.5, 2.0, size=(n, spec.total_dimension))
    k_star = 8 + 3  # axis block is 8 wide; pair (0,3)... index 2 -> choose pair (1,2)
    y = np.where(X[:, k_star] > 1.2, 3, 0)
    ds = LabeledDataset(X=X, y=y)
    model = gb_train(ds, ds, max_trees=6)
    report = influence_report(model, spec, top_k=2)
    pairs = [tuple(p) for p in pair_enumeration(4)]
    assert report.pairs[0] == pairs[3]
