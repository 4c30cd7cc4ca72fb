import hashlib

import numpy as np
import pytest

import gb_oracle
from landmark_emotion.errors import DimensionMismatchError
from landmark_emotion.learners.dataset import CLASSES, LabeledDataset, canonical_order
from landmark_emotion.learners.gb import Split, gb_influence, gb_predict_batch, gb_scores, gb_train, gb_truncate
from landmark_emotion.learners.persist import save_model
from landmark_emotion.pipeline import PipelineConfig, load_dataset
from landmark_emotion.synth import synth_dataset


def dataset(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return LabeledDataset(X=X, y=np.asarray(y))


def blob_fixture(seed=42, n_per=50, sigma=0.5):
    """3-class gaussian blobs at (0,0), (4,0), (0,4)."""
    rng = np.random.default_rng(seed)
    centers = {0: (0.0, 0.0), 3: (4.0, 0.0), 4: (0.0, 4.0)}

    def draw():
        X, y = [], []
        for cls, center in centers.items():
            X.append(rng.normal(0, sigma, size=(n_per, 2)) + center)
            y.extend([cls] * n_per)
        return dataset(np.vstack(X), y)

    return draw(), draw()


def test_single_feature_split_fixture():
    X = np.array([[0.0], [0.1], [0.9], [1.0], [0.05], [0.95]])
    y = np.array([0, 0, 3, 3, 0, 3])
    ds = dataset(X, y)
    model = gb_train(ds, ds, max_trees=5)
    pred = gb_predict_batch(model, X)
    assert np.array_equal(pred, y)
    assert model.tree_count <= 5


def test_single_class_rejected():
    ds = dataset(np.random.default_rng(0).random((6, 3)), [4] * 6)
    with pytest.raises(DimensionMismatchError):
        gb_train(ds, ds)


def test_blob_fixture_validation_accuracy():
    train, val = blob_fixture()
    model = gb_train(train, val, max_trees=40)
    assert max(model.val_accuracy) >= 0.95
    pred = gb_predict_batch(model, val.X)
    assert np.mean(pred == val.y) >= 0.95


def test_deviance_non_increasing():
    train, val = blob_fixture()
    model = gb_train(train, val, max_trees=40)
    dev = np.array(model.train_deviance)
    assert np.all(np.diff(dev) <= 1e-12)


def test_every_tree_two_splits_three_leaves():
    train, val = blob_fixture()
    model = gb_train(train, val, max_trees=25)
    for per_class in model.trees:
        for tree in per_class:
            assert tree.root is not None and tree.inner is not None
            assert len(tree.values) == 3


def test_zero_trees_predicts_prior():
    X = np.random.default_rng(3).random((12, 2))
    y = np.array([0] * 3 + [3] * 7 + [5] * 2)  # Happy is the majority class
    ds = dataset(X, y)
    model = gb_truncate(gb_train(ds, ds, max_trees=3), 0)
    assert CLASSES[gb_predict_batch(model, X[:1])[0]] == "Happy"
    assert np.array_equal(gb_scores(model, X[:1])[0], model.init_scores)


def test_staged_equals_truncated():
    train, val = blob_fixture(n_per=20, sigma=1.6)
    model = gb_train(train, val, max_trees=8)
    probe = val.X[:10]
    for t in range(1, model.tree_count + 1):
        # keeping t trees instead of t - 1 adds exactly iteration t's tree per class
        step = gb_scores(gb_truncate(model, t), probe) - gb_scores(gb_truncate(model, t - 1), probe)
        added = np.stack([model.shrinkage * trees[t - 1].predict(probe) for trees in model.trees], axis=1)
        assert np.allclose(step, added, atol=1e-12)


def test_training_points_recovered_after_convergence():
    train, _ = blob_fixture(n_per=15)
    model = gb_train(train, train, max_trees=30)
    pred = gb_predict_batch(model, train.X)
    assert np.mean(pred == train.y) == 1.0


def test_sample_order_invariance():
    train, val = blob_fixture(n_per=12)
    rng = np.random.default_rng(9)
    perm = rng.permutation(len(train))
    shuffled = LabeledDataset(X=train.X[perm], y=train.y[perm])
    a = gb_train(train, val, max_trees=10)
    b = gb_train(shuffled, val, max_trees=10)
    probe = rng.random((50, 2)) * 5
    assert a.tree_count == b.tree_count
    assert np.array_equal(gb_predict_batch(a, probe), gb_predict_batch(b, probe))
    assert np.allclose(gb_scores(a, probe), gb_scores(b, probe), atol=1e-12)


def test_argmax_invariant_to_score_shift():
    train, val = blob_fixture(n_per=10)
    model = gb_train(train, val, max_trees=6)
    scores = gb_scores(model, val.X)
    shifted = scores + 7.25
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(shifted, axis=1))


def test_dimension_mismatch_rejected():
    train, val = blob_fixture(n_per=10)
    model = gb_train(train, val, max_trees=3)
    with pytest.raises(DimensionMismatchError):
        gb_predict_batch(model, np.zeros(5))


def test_influence_unused_feature_zero_and_sums_to_one():
    rng = np.random.default_rng(11)
    X = rng.random((60, 6))
    y = np.where(X[:, 2] > 0.5, 3, 0)
    ds = dataset(X, y)
    model = gb_train(ds, ds, max_trees=10)
    influence = gb_influence(model)
    assert influence.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(influence >= 0)
    used = {s.feature for per_class in model.trees for t in per_class[: model.tree_count] for s in t.splits}
    for f in range(6):
        if f not in used:
            assert influence[f] == 0.0


def test_influence_concentrates_on_signal_feature():
    rng = np.random.default_rng(13)
    X = rng.random((90, 12))
    y = np.digitize(X[:, 7], [0.33, 0.66])  # label a deterministic function of feature 7
    y = np.array([0, 3, 4])[y]
    ds = dataset(X, y)
    model = gb_train(ds, ds, max_trees=15)
    influence = gb_influence(model)
    assert int(np.argmax(influence)) == 7


def first_residuals(ds):
    """Training rows in canonical order and the first iteration's residuals ``Y - softmax(log priors)``."""
    order = canonical_order(ds.X, ds.y)
    X, y = ds.X[order], ds.y[order]
    Y = np.stack([(y == c).astype(np.float64) for c in ds.classes_present()], axis=1)
    F = np.tile(np.log(Y.mean(axis=0)), (len(y), 1))
    e = np.exp(F - F.max(axis=1, keepdims=True))
    return X, Y - e / e.sum(axis=1, keepdims=True)


def oracle_cases():
    """Small matrices with heavy duplicates, a constant column and tiny children."""
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(5, 13))
        X = rng.integers(0, 3, size=(n, 5)).astype(np.float64)
        X[:, 2] = 1.5  # constant: never splittable
        X[:, 4] = rng.choice([-0.25, 0.1, 0.7], size=n)
        y = np.array([0, 3, 5])[rng.integers(0, 3, size=n)]
        y[:2] = (0, 3)  # at least two classes
        yield dataset(X, y)
    # long runs of equal values: the order inside a run changes the prefix-sum bits
    X = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
    yield dataset(X, np.array([0, 3, 5])[rng.integers(0, 3, size=40)])
    # one row stands alone on feature 0, so a child holds a single row
    X = np.array([[9.0, 1.0], [0.0, 1.0], [0.0, 2.0], [0.0, 2.0], [0.0, 1.0], [0.0, 2.0]])
    yield dataset(X, [4, 0, 3, 3, 0, 3])
    # both children's best splits gain the same, so the left child is expanded
    X = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    yield dataset(X, [0, 3, 0, 3, 0, 3])


def as_split(found):
    return None if found is None else Split(feature=found[1], threshold=found[2], gain=found[0])


def test_split_search_matches_exhaustive_oracle():
    child_sizes = set()
    for ds in oracle_cases():
        model = gb_train(ds, ds, max_trees=1)
        X, R = first_residuals(ds)
        rows = X.tolist()
        for k, per_class in enumerate(model.trees):
            root, inner, inner_right, sizes = gb_oracle.two_split_tree(rows, R[:, k].tolist())
            tree = per_class[0]
            assert tree.root == as_split(root)
            assert tree.inner == as_split(inner)
            if inner is not None:
                assert tree.inner_right == inner_right
            child_sizes.update(sizes)
    assert 1 in child_sizes  # the cases reach a one-row child


PINNED_DIGEST = "53cafb0f43464a19077bbbccba3731d42e14a0c1fcaa98026a37a72eebd86e30"
PINNED_VAL_ACCURACY = (0.7142857142857143, 0.7857142857142857, 0.8571428571428571)
PINNED_TRAIN_DEVIANCE = (1.3962361363671731, 1.0950932850858697, 0.8816318744432964)


def test_gb_model_bytes_pinned(tmp_path):
    """Any drift in the split search shows here as changed model bytes."""
    manifest = synth_dataset(tmp_path / "data", seed=5, per_class_count=10)
    result = load_dataset(manifest, PipelineConfig(manifest=str(manifest), features=("distances", "axis")))
    model = gb_train(result.datasets["train"], result.datasets["validate"], max_trees=3)
    digest = hashlib.sha256(save_model(model).encode()).hexdigest()
    assert digest == PINNED_DIGEST
    assert model.val_accuracy == PINNED_VAL_ACCURACY
    assert model.train_deviance == PINNED_TRAIN_DEVIANCE
