"""Multiclass gradient boosting with two-split regression trees.

One tree per class per iteration is fit to the negative gradient of the
multinomial deviance; leaf values take the per-leaf Newton step.  Trees are
grown best-first to exactly two internal splits (three leaves) by exact
greedy search over every feature, thresholds at midpoints between distinct
sorted values.  All tie-breaks are deterministic (lowest feature index, then
lowest threshold), and training rows are put into a canonical order first so
results do not depend on how the caller shuffled the samples.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import DimensionMismatchError
from .dataset import LabeledDataset, canonical_order

DEFAULT_SHRINKAGE = 0.1


@dataclass(frozen=True)
class Tree:
    """A tiny regression tree stored as flat node arrays (node 0 is the root).

    ``feature[i] == -1`` marks a leaf; internal nodes carry the split
    feature, threshold, squared-error improvement, and child indices.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    gain: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def split_count(self) -> int:
        return int(np.sum(self.feature >= 0))

    @property
    def leaf_count(self) -> int:
        return int(np.sum(self.feature < 0))

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        out = np.empty(X.shape[0])
        self._fill(0, np.arange(X.shape[0]), X, out)
        return out

    def _fill(self, node: int, rows: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
        if self.feature[node] < 0:
            out[rows] = self.value[node]
            return
        goes_left = X[rows, self.feature[node]] <= self.threshold[node]
        self._fill(self.left[node], rows[goes_left], X, out)
        self._fill(self.right[node], rows[~goes_left], X, out)


class _TreeBuilder:
    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.value: list[float] = []
        self.gain: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []

    def add(self, feature=-1, threshold=0.0, value=0.0, gain=0.0, left=-1, right=-1) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.value.append(value)
        self.gain.append(gain)
        self.left.append(left)
        self.right.append(right)
        return len(self.feature) - 1

    def freeze(self) -> Tree:
        def arr(x, dtype):
            a = np.array(x, dtype=dtype)
            a.flags.writeable = False
            return a

        return Tree(
            feature=arr(self.feature, np.int64),
            threshold=arr(self.threshold, np.float64),
            value=arr(self.value, np.float64),
            gain=arr(self.gain, np.float64),
            left=arr(self.left, np.int64),
            right=arr(self.right, np.int64),
        )


@dataclass(frozen=True)
class GBModel:
    """Additive per-class ensembles of two-split trees."""

    classes: tuple[int, ...]  # global class indices present in training
    init_scores: np.ndarray  # log priors, one per entry of classes
    shrinkage: float
    tree_count: int  # trees kept per class (validation-selected)
    trees: tuple[tuple[Tree, ...], ...]  # trees[k][t]: class k, iteration t
    dimension: int
    spec_digest: str = ""
    # per-iteration curves over the full training run; not persisted
    train_deviance: tuple[float, ...] = field(default=(), repr=False)
    val_accuracy: tuple[float, ...] = field(default=(), repr=False)


def _softmax(F: np.ndarray) -> np.ndarray:
    shifted = F - F.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _SplitSearch:
    """Presorted exact greedy search shared by all nodes of a training run."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.n, self.d = X.shape
        self.sort_idx = np.argsort(X, axis=0, kind="stable")

    def node_order(self, rows: np.ndarray) -> np.ndarray:
        """Per-feature sorted member row indices, shape (d, len(rows))."""
        mask = np.zeros(self.n, dtype=bool)
        mask[rows] = True
        picked = mask[self.sort_idx]  # (n, d)
        return self.sort_idx.T[picked.T].reshape(self.d, len(rows))

    def best_split(self, rows: np.ndarray, residual: np.ndarray):
        """Best (gain, feature, threshold) over all features, or None.

        ``residual`` is indexed by full-matrix row number.  Ties resolve to
        the lowest feature index, then the lowest threshold.
        """
        m = len(rows)
        if m < 2:
            return None
        order = self.node_order(rows)  # (d, m) row indices
        sv = self.X[order, np.arange(self.d)[:, None]]  # sorted values per feature
        sr = residual[order]
        csum = np.cumsum(sr, axis=1)
        total = csum[:, -1:]
        k = np.arange(1, m, dtype=np.float64)
        left_sum = csum[:, :-1]
        right_sum = total - left_sum
        gains = left_sum**2 / k + right_sum**2 / (m - k) - total**2 / m
        valid = sv[:, 1:] > sv[:, :-1]
        gains = np.where(valid, gains, -np.inf)
        flat = int(np.argmax(gains))
        f, pos = divmod(flat, m - 1)
        if not np.isfinite(gains[f, pos]):
            return None
        threshold = 0.5 * (sv[f, pos] + sv[f, pos + 1])
        # the improvement is non-negative in exact arithmetic; clip fp dust
        return max(float(gains[f, pos]), 0.0), int(f), float(threshold)


def _newton_value(rows: np.ndarray, residual: np.ndarray, weight: np.ndarray, k_classes: int) -> float:
    num = residual[rows].sum() * (k_classes - 1) / k_classes
    den = weight[rows].sum()
    if den <= 0:
        return 0.0
    return float(num / den)


def _fit_two_split_tree(
    search: _SplitSearch,
    rows: np.ndarray,
    residual: np.ndarray,
    weight: np.ndarray,
    k_classes: int,
) -> tuple[Tree, np.ndarray]:
    """Grow a best-first tree with up to two splits; returns (tree, per-row prediction)."""
    X = search.X
    builder = _TreeBuilder()
    prediction = np.zeros(search.n)

    def leaf_value(node_rows):
        return _newton_value(node_rows, residual, weight, k_classes)

    root_split = search.best_split(rows, residual)
    if root_split is None:
        root = builder.add(value=leaf_value(rows))
        prediction[rows] = builder.value[root]
        return builder.freeze(), prediction

    gain0, f0, t0 = root_split
    left_rows = rows[X[rows, f0] <= t0]
    right_rows = rows[X[rows, f0] > t0]

    candidates = [search.best_split(left_rows, residual), search.best_split(right_rows, residual)]
    # expand the child whose best split improves more; ties expand the left child
    if candidates[0] is None and candidates[1] is None:
        expand = None
    elif candidates[1] is None:
        expand = 0
    elif candidates[0] is None:
        expand = 1
    else:
        expand = 0 if candidates[0][0] >= candidates[1][0] else 1

    root = builder.add(feature=f0, threshold=t0, gain=gain0)
    children = [left_rows, right_rows]
    child_ids = []
    for side, node_rows in enumerate(children):
        if expand == side:
            g1, f1, t1 = candidates[side]
            inner = builder.add(feature=f1, threshold=t1, gain=g1)
            sub_left = node_rows[X[node_rows, f1] <= t1]
            sub_right = node_rows[X[node_rows, f1] > t1]
            ll = builder.add(value=leaf_value(sub_left))
            rr = builder.add(value=leaf_value(sub_right))
            builder.left[inner] = ll
            builder.right[inner] = rr
            prediction[sub_left] = builder.value[ll]
            prediction[sub_right] = builder.value[rr]
            child_ids.append(inner)
        else:
            leaf = builder.add(value=leaf_value(node_rows))
            prediction[node_rows] = builder.value[leaf]
            child_ids.append(leaf)
    builder.left[root] = child_ids[0]
    builder.right[root] = child_ids[1]
    return builder.freeze(), prediction


def gb_train(
    train: LabeledDataset,
    val: LabeledDataset,
    shrinkage: float = DEFAULT_SHRINKAGE,
    max_trees: int = 100,
) -> GBModel:
    """Boost two-split trees; keep the tree count with the best validation accuracy."""
    train.require_labeled()
    val.require_labeled()
    if max_trees < 1:
        raise DimensionMismatchError("max_trees must be at least 1")
    if not 0 < shrinkage <= 1:
        raise DimensionMismatchError(f"shrinkage must be in (0, 1], got {shrinkage}")
    classes = train.classes_present()
    if len(classes) < 2:
        raise DimensionMismatchError("gradient boosting needs at least two classes present")
    if val.dimension != train.dimension:
        raise DimensionMismatchError("train and validation dimensions differ")

    order = canonical_order(train.X, train.y)
    X = np.ascontiguousarray(train.X[order])
    y = train.y[order]
    n, kc = X.shape[0], len(classes)
    Y = np.stack([(y == c).astype(np.float64) for c in classes], axis=1)

    priors = Y.mean(axis=0)
    init_scores = np.log(priors)
    F = np.tile(init_scores, (n, 1))
    Fv = np.tile(init_scores, (len(val), 1))
    class_lookup = np.array(classes)

    search = _SplitSearch(X)
    all_rows = np.arange(n)
    trees: list[list[Tree]] = [[] for _ in range(kc)]
    train_deviance: list[float] = []
    val_accuracy: list[float] = []

    for _ in range(max_trees):
        P = _softmax(F)
        residual_all = Y - P
        weight_all = P * (1.0 - P)
        for k in range(kc):
            tree, pred = _fit_two_split_tree(search, all_rows, residual_all[:, k], weight_all[:, k], kc)
            trees[k].append(tree)
            F[:, k] += shrinkage * pred
            Fv[:, k] += shrinkage * tree.predict(val.X)
        logp = F - _logsumexp(F)
        train_deviance.append(float(-np.mean(logp[np.arange(n), np.argmax(Y, axis=1)])))
        val_pred = class_lookup[np.argmax(Fv, axis=1)]
        val_accuracy.append(float(np.mean(val_pred == val.y)))

    best_iter = int(np.argmax(val_accuracy))  # earliest maximum wins ties
    tree_count = best_iter + 1
    return GBModel(
        classes=classes,
        init_scores=init_scores,
        shrinkage=shrinkage,
        tree_count=tree_count,
        trees=tuple(tuple(ts) for ts in trees),
        dimension=train.dimension,
        train_deviance=tuple(train_deviance),
        val_accuracy=tuple(val_accuracy),
    )


def _logsumexp(F: np.ndarray) -> np.ndarray:
    m = F.max(axis=1, keepdims=True)
    return m + np.log(np.exp(F - m).sum(axis=1, keepdims=True))


def gb_scores(model: GBModel, X: np.ndarray) -> np.ndarray:
    """Raw additive scores per model class for each row of ``X``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.dimension:
        raise DimensionMismatchError(f"expected {model.dimension} features, got {X.shape[1]}")
    scores = np.tile(model.init_scores, (X.shape[0], 1))
    for k in range(len(model.classes)):
        for tree in model.trees[k][: model.tree_count]:
            scores[:, k] += model.shrinkage * tree.predict(X)
    return scores


def gb_predict_batch(model: GBModel, X: np.ndarray) -> np.ndarray:
    """Predicted global class indices for each row of ``X``; argmax ties pick the earliest class."""
    scores = gb_scores(model, X)
    return np.array(model.classes)[np.argmax(scores, axis=1)]


def gb_truncate(model: GBModel, tree_count: int) -> GBModel:
    if not 0 <= tree_count <= min(len(ts) for ts in model.trees):
        raise DimensionMismatchError(f"cannot truncate to {tree_count} trees")
    return replace(model, tree_count=tree_count)


def gb_influence(model: GBModel) -> np.ndarray:
    """Relative feature influence: summed split gains, normalized to sum 1."""
    influence = np.zeros(model.dimension)
    for per_class in model.trees:
        for tree in per_class[: model.tree_count]:
            for node in range(len(tree.feature)):
                f = tree.feature[node]
                if f >= 0:
                    influence[f] += tree.gain[node]
    total = influence.sum()
    if total > 0:
        influence /= total
    return influence
