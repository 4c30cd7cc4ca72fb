import dataclasses
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gb_oracle
from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.learners.dataset import CLASSES, LabeledDataset, canonical_order
from landmark_emotion.learners import gb
from landmark_emotion.learners.gb import Split, gb_influence, gb_predict_batch, gb_scores, gb_train
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
    with pytest.raises(LandmarkEmotionError, match="at least two classes"):
        gb_train(ds, ds)


def test_empty_validation_set_rejected():
    train, _ = blob_fixture(n_per=10)
    empty = LabeledDataset(np.zeros((0, train.dimension)), [])
    with pytest.raises(LandmarkEmotionError, match="training needs a non-empty validation set"):
        gb_train(train, empty)


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
    model = dataclasses.replace(gb_train(ds, ds, max_trees=3), tree_count=0)
    assert CLASSES[gb_predict_batch(model, X[:1])[0]] == "Happy"
    assert np.array_equal(gb_scores(model, X[:1])[0], model.init_scores)


def test_staged_equals_truncated():
    train, val = blob_fixture(n_per=20, sigma=1.6)
    model = gb_train(train, val, max_trees=8)
    probe = val.X[:10]
    for t in range(1, model.tree_count + 1):
        # keeping t trees instead of t - 1 adds exactly iteration t's tree per class
        kept = [dataclasses.replace(model, tree_count=n) for n in (t, t - 1)]
        step = gb_scores(kept[0], probe) - gb_scores(kept[1], probe)
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
    with pytest.raises(LandmarkEmotionError, match="expected 2 columns, got 5"):
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


def round_residuals(ds, model, t):
    """Training rows in canonical order and round ``t``'s residuals ``Y - softmax(F)``.

    ``F`` is the log priors plus the first ``t - 1`` trees of ``model`` per
    class, summed in the order ``gb_train`` sums them, so the floats match.
    """
    order = canonical_order(ds.X, ds.y)
    X, y = ds.X[order], ds.y[order]
    Y = np.stack([(y == c).astype(np.float64) for c in ds.classes_present()], axis=1)
    F = np.tile(np.log(Y.mean(axis=0)), (len(y), 1))
    for r in range(t - 1):
        for k, per_class in enumerate(model.trees):
            F[:, k] += model.shrinkage * per_class[r].predict(X)
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
    # rows in canonical order alternate between the children of a root split
    # on feature 2, so runs of equal feature-1 values interleave member and
    # non-member rows: consecutive rows of a child are tied with the other
    # child's rows between them, and a child row is tied with its root-order
    # neighbour while the child's next row holds a larger value
    X = np.stack([np.arange(12), [1, 1, 2, 2, 0, 0, 2, 2, 0, 0, 2, 1], np.arange(12) % 2], axis=1)
    yield dataset(X, [0, 5, 0, 3, 3, 3, 0, 0, 5, 5, 5, 3])


def as_split(found):
    return None if found is None else Split(feature=found[1], threshold=found[2], gain=found[0])


def count_child_searches(monkeypatch):
    """Record, for each tree with a root split, how many of its children were searched."""
    per_thread = {}  # child searches so far of the tree each thread is growing
    searched = []
    split, fit = gb._split, gb._fit_two_split_tree

    def counting_split(columns, residual, member=None):
        per_thread[threading.get_ident()] += member is not None
        return split(columns, residual, member)

    def counting_fit(columns, *args):
        per_thread[threading.get_ident()] = 0
        tree = fit(columns, *args)
        if tree.root is not None:
            searched.append(per_thread[threading.get_ident()])
        return tree

    monkeypatch.setattr(gb, "_split", counting_split)
    monkeypatch.setattr(gb, "_fit_two_split_tree", counting_fit)
    return searched


def test_split_search_matches_exhaustive_oracle(monkeypatch):
    child_sizes = set()
    searched = count_child_searches(monkeypatch)
    for ds in oracle_cases():
        model = gb_train(ds, ds, max_trees=3)
        for t in (1, 3):
            X, R = round_residuals(ds, model, t)
            rows = X.tolist()
            for k, per_class in enumerate(model.trees):
                root, inner, inner_right, sizes = gb_oracle.two_split_tree(rows, R[:, k].tolist())
                tree = per_class[t - 1]
                assert tree.root == as_split(root)
                assert tree.inner == as_split(inner)
                if inner is not None:
                    assert tree.inner_right == inner_right
                child_sizes.update(sizes)
    assert 1 in child_sizes  # the cases reach a one-row child
    # the oracle judges trees whose second child was skipped and trees whose children were both searched
    assert {1, 2} <= set(searched)


def two_child_tree(X, residual):
    """The tree ``_fit_two_split_tree`` grows over rows ``X``, checked against the exhaustive oracle."""
    X = np.asarray(X, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    tree = gb._fit_two_split_tree(gb._SortedColumns(X), residual, np.full(len(X), 0.25), 2)
    root, inner, inner_right, _ = gb_oracle.two_split_tree(X.tolist(), residual.tolist())
    assert (tree.root, tree.inner, tree.inner_right) == (as_split(root), as_split(inner), inner_right)
    return tree


def test_skip_needs_a_gain_strictly_above_the_other_bound():
    # the root splits on feature 0; each child then splits on feature 1 only, and every sum is exact.
    # Left child: residuals 4, 4, 2, 2, squared-error bound 40 - 144/4 = 4, best split perfect, gain 4.
    # Right child: residuals -1, -5, -3, -3, bound 44 - 144/4 = 8, so it is searched first; its best
    # split gains 16/2 + 64/2 - 144/4 = 4, exactly the left bound, so the left child must still be
    # searched, and the equal gains expand the left child.
    X = [[0, 0], [0, 0], [0, 1], [0, 1], [1, 0], [1, 1], [1, 0], [1, 1]]
    tree = two_child_tree(X, [4, 4, 2, 2, -1, -5, -3, -3])
    assert tree.root.feature == 0 and tree.inner.gain == 4.0 and not tree.inner_right


def test_zero_bound_child_is_searched_after_a_zero_gain():
    # left child: residuals all 2, bound 0, best split gains 0; right child: bound 4, best split gains 0
    X = [[0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [1, 1], [1, 1]]
    tree = two_child_tree(X, [2, 2, 2, 0, -2, -2, 0])
    assert tree.root.feature == 0 and tree.inner.gain == 0.0 and not tree.inner_right


def test_neighbouring_values_split_one_row_each_side():
    # the midpoint of two neighbouring floats rounds onto the upper one, and a sum past the
    # largest float overflows to +-inf: the threshold is then the lower value
    neighbours = (1.0 + 2.0**-52, np.nextafter(1.0 + 2.0**-52, 2.0))
    for lo, hi in (neighbours, (1e308, 1.7e308), (-1.7e308, -1e308)):
        tree = two_child_tree([[lo], [hi]], [0.5, -0.5])
        assert tree.root.threshold == lo
        assert tree.predict(np.array([[lo], [hi]])).tolist() == list(tree.values)


@pytest.mark.parametrize("width", [1, 3, 4])
def test_split_search_across_feature_blocks(monkeypatch, width):
    """Eleven features in blocks of ``width`` (a partial last block at 3 and 4): root and inner
    splits match the oracle, and each winning column ties with its copy in a later block and wins."""
    crossed = {"root": 0, "inner": 0}
    rng = np.random.default_rng(34)
    for _ in range(12):
        n = int(rng.integers(6, 14))
        monkeypatch.setattr(gb, "_BLOCK_ENTRIES", width * n + n - 1)  # ``width`` features per block
        base = rng.integers(0, 4, size=(n, 7)).astype(np.float64)
        residual = rng.normal(size=n)
        root, inner, _, _ = gb_oracle.two_split_tree(base.tolist(), residual.tolist())
        if inner is None:
            continue
        # constant columns never split, so the copies of the winners at 8 and 9 only tie with them
        constant = np.ones((n, 1))
        X = np.hstack([base, constant, base[:, [root[1], inner[1]]], constant])
        tree = two_child_tree(X, residual)
        assert (tree.root.feature, tree.inner.feature) == (root[1], inner[1])
        crossed["root"] += root[1] // width < 8 // width
        crossed["inner"] += inner[1] // width < 9 // width
    assert min(crossed.values()) >= 5


@pytest.mark.parametrize("width", [1, 2])
def test_overflowing_gain_in_a_later_block_means_no_split(monkeypatch, width):
    # feature 0 ties the two huge residuals, so its one threshold gains a finite amount; feature 1
    # separates them and its gain overflows to inf.  One argmax over all features stopped at that
    # inf and found no split, so the blocks must too.
    monkeypatch.setattr(gb, "_BLOCK_ENTRIES", 3 * width)
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 2.0]])
    with np.errstate(over="ignore"):
        assert gb._split(gb._SortedColumns(X), np.array([0.5, 1e200, -1e200])) is None


def test_extra_searches_hold_less_than_one_table(monkeypatch):
    """Each thread's block temporaries are block-sized, so three extra threads searching at once
    hold less than one (features × rows) table together."""
    rng = np.random.default_rng(7)
    n, d = 200, 5000  # 1e6 entries per table, far more than one block
    train = dataset(rng.normal(size=(n, d)), np.repeat([0, 2, 3, 6], n // 4))
    table_bytes = d * n * 8

    def peak_growth(cpus):
        monkeypatch.setattr(gb, "_cpu_count", lambda: cpus)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gb_train(train, train, max_trees=1)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    # four classes on four CPUs: three threads more than on one CPU
    assert peak_growth(4) - peak_growth(1) < table_bytes


def test_search_keeps_no_state_between_nodes(monkeypatch):
    """Calls for nodes of different trees interleave on one sorted layout, and each finds its
    node's best split: a child with no root search before it, another residual's root, the other
    child."""
    monkeypatch.setattr(gb, "_BLOCK_ENTRIES", 3 * 14)  # several blocks, a partial last one
    rng = np.random.default_rng(35)
    n = 14
    X = rng.integers(0, 4, size=(n, 8)).astype(np.float64)
    a, b = rng.normal(size=n), rng.normal(size=n)
    columns = gb._SortedColumns(X)
    left = X[:, 2] <= 1.5
    rows = X.tolist()
    calls = [(a, left), (b, None), (a, ~left)]
    for residual, member in calls:
        node = range(n) if member is None else np.flatnonzero(member).tolist()
        expected = gb_oracle.best_split(rows, list(node), residual.tolist())
        assert expected is not None
        assert gb._split(columns, residual, member) == expected


def test_threads_search_one_shared_layout(monkeypatch):
    """Two threads run hundreds of interleaved searches for different nodes, over several
    feature blocks of one shared sorted layout, and every call finds its node's best split."""
    monkeypatch.setattr(gb, "_BLOCK_ENTRIES", 3 * 14)  # several blocks, a partial last one
    rng = np.random.default_rng(36)
    n, calls = 14, 300
    X = rng.integers(0, 4, size=(n, 8)).astype(np.float64)
    columns = gb._SortedColumns(X)
    rows = X.tolist()
    nodes = [[], []]  # per thread: (residual, member, oracle's split) of a root and five children
    for per_thread in nodes:
        for member in [None] + [rng.random(n) < 0.6 for _ in range(5)]:
            residual = rng.normal(size=n)
            node = range(n) if member is None else np.flatnonzero(member).tolist()
            per_thread.append((residual, member, gb_oracle.best_split(rows, list(node), residual.tolist())))
    assert sum(expected is not None for per_thread in nodes for _, _, expected in per_thread) >= 10
    barrier = threading.Barrier(2, timeout=60)
    found = [[], []]

    def search(t):
        try:
            for i in range(calls):
                residual, member, expected = nodes[t][i % len(nodes[t])]
                barrier.wait()  # both threads start each call together
                found[t].append(gb._split(columns, residual, member) == expected)
        except BaseException:
            barrier.abort()  # a thread that fails releases the other
            raise

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=search, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [[True] * calls, [True] * calls]


def test_sorted_columns_are_read_only():
    columns = gb._SortedColumns(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 2.0]]))
    for table in (columns.order, columns.rank):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 2] = 0


def test_zero_columns_rejected():
    ds = dataset(np.zeros((6, 0)), [0, 3] * 3)
    with pytest.raises(LandmarkEmotionError, match="training rows have no feature columns"):
        gb_train(ds, ds)


PINNED_DIGEST = "53cafb0f43464a19077bbbccba3731d42e14a0c1fcaa98026a37a72eebd86e30"
PINNED_VAL_ACCURACY = (0.7142857142857143, 0.7857142857142857, 0.8571428571428571)
PINNED_TRAIN_DEVIANCE = (1.3962361363671731, 1.0950932850858697, 0.8816318744432964)


@pytest.fixture(scope="module")
def pinned_splits(tmp_path_factory):
    manifest = synth_dataset(tmp_path_factory.mktemp("pinned") / "data", seed=5, per_class_count=10)
    result = load_dataset(manifest, PipelineConfig(manifest=str(manifest), features=("distances", "axis")))
    return result.datasets["train"], result.datasets["validate"]


def assert_pinned(model):
    digest = hashlib.sha256(save_model(model).encode()).hexdigest()
    assert digest == PINNED_DIGEST
    assert model.val_accuracy == PINNED_VAL_ACCURACY
    assert model.train_deviance == PINNED_TRAIN_DEVIANCE


def test_gb_model_bytes_pinned(pinned_splits):
    """Any drift in the split search shows here as changed model bytes."""
    assert_pinned(gb_train(*pinned_splits, max_trees=3))


def test_child_search_skipped_without_changing_bytes(pinned_splits, monkeypatch):
    searched = count_child_searches(monkeypatch)
    assert_pinned(gb_train(*pinned_splits, max_trees=3))
    # 21 trees with a root split: searching both children of each would take 42 child searches
    assert len(searched) == 3 * len(CLASSES)
    assert sum(searched) == 27 < 2 * len(searched)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_worker_count_keeps_model_bytes(pinned_splits, monkeypatch, cpus):
    """A run fits each round in W = min(CPUs, classes) stripes on at most W threads, stripe s
    always fitting classes s, s + W, … and stripe 0 on the calling thread; the model is the same
    for any count."""
    calls = []  # (stripe, stripe count, classes fit, thread) per stripe call
    stripe_classes = threading.local()  # the classes the thread's current stripe call has fit
    running = set()
    fit, fit_stripe = gb._fit_two_split_tree, gb._fit_stripe

    def recording_fit(columns, residual, *args):
        # each class's residual is a column view of the round's (n, K) residual matrix
        stripe_classes.fit.append((residual.ctypes.data - residual.base.ctypes.data) // residual.itemsize)
        running.add(threading.active_count())
        return fit(columns, residual, *args)

    def recording_stripe(columns, s, w, *args):
        stripe_classes.fit = []
        trees = fit_stripe(columns, s, w, *args)
        calls.append((s, w, stripe_classes.fit, threading.current_thread()))
        return trees

    monkeypatch.setattr(gb, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(gb, "_fit_two_split_tree", recording_fit)
    monkeypatch.setattr(gb, "_fit_stripe", recording_stripe)
    before = threading.active_count()
    assert_pinned(gb_train(*pinned_splits, max_trees=3))
    w = min(cpus, len(CLASSES))
    assert sorted(s for s, *_ in calls) == sorted(list(range(w)) * 3)  # every stripe once a round
    for s, count, classes, thread in calls:
        assert count == w
        assert classes == list(range(s, len(CLASSES), w))
        if s == 0:
            assert thread is threading.current_thread()
    # one helper pool for the whole run, not a fresh helper per round
    assert len({thread for *_, thread in calls}) <= w
    if cpus == 1:  # no helper thread starts
        assert {thread for *_, thread in calls} == {threading.current_thread()}
        assert running == {before}


@pytest.mark.parametrize("failing", [0, len(CLASSES) - 1])
def test_tree_failure_is_raised_and_helpers_stop(pinned_splits, monkeypatch, failing):
    fit = gb._fit_two_split_tree

    def failing_fit(columns, residual, *args):
        # each class's residual is a column view of the round's (n, K) residual matrix
        if (residual.ctypes.data - residual.base.ctypes.data) // residual.itemsize == failing:
            raise ArithmeticError(f"class {failing} failed")
        return fit(columns, residual, *args)

    monkeypatch.setattr(gb, "_cpu_count", lambda: 8)
    monkeypatch.setattr(gb, "_fit_two_split_tree", failing_fit)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"class {failing} failed"):
        gb_train(*pinned_splits, max_trees=3)
    assert threading.active_count() == before
