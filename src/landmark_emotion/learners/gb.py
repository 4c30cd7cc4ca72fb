"""Multiclass gradient boosting with two-split regression trees.

One tree per class per iteration is fit to the negative gradient of the
multinomial deviance; leaf values take the per-leaf Newton step.  Trees are
grown best-first to exactly two internal splits (three leaves) by exact
greedy search over every feature, thresholds at midpoints between distinct
sorted values.  All tie-breaks are deterministic (lowest feature index, then
lowest threshold), and training rows are put into a canonical order first so
results do not depend on how the caller shuffled the samples.

Every column is sorted once per training run (XGBoost's exact greedy search
over pre-sorted columns).  A root search takes the residual into that sorted
(features × rows) layout; a child's layout is a stable partition of the
root's, never a fresh gather from the feature matrix.  The prefix sums and
the gain formula run in work buffers allocated once per run; a child search
allocates only the index of its positions in the root layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import DimensionMismatchError
from .dataset import LabeledDataset, canonical_order

DEFAULT_SHRINKAGE = 0.1


@dataclass(frozen=True)
class Split:
    """One test ``x[feature] <= threshold`` (true goes left) and its squared-error improvement."""

    feature: int
    threshold: float
    gain: float


@dataclass(frozen=True)
class Tree:
    """A regression tree with at most two splits.

    ``root`` is None for a single-leaf tree.  ``inner``, when present, splits
    the root's left child (``inner_right`` false) or its right child.
    ``values`` holds the leaf values left to right: 1, 2 or 3 of them.
    """

    values: tuple[float, ...]
    root: Split | None = None
    inner: Split | None = None
    inner_right: bool = False

    @property
    def splits(self) -> tuple[Split, ...]:
        """The splits present, root first."""
        return tuple(s for s in (self.root, self.inner) if s is not None)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        leaf = np.zeros(X.shape[0], dtype=np.intp)
        if self.root is not None:
            right = ~(X[:, self.root.feature] <= self.root.threshold)
            leaf = right.astype(np.intp)
            if self.inner is not None:
                deeper = ~(X[:, self.inner.feature] <= self.inner.threshold)
                leaf = np.where(right, 1 + deeper, 0) if self.inner_right else np.where(right, 2, deeper)
        return np.asarray(self.values)[leaf]


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
    mean_shape: np.ndarray | None = None  # (68, 2) training mean shape, for axis features
    # per-iteration curves over the full training run; not persisted
    train_deviance: tuple[float, ...] = field(default=(), repr=False)
    val_accuracy: tuple[float, ...] = field(default=(), repr=False)


def _softmax(F: np.ndarray) -> np.ndarray:
    shifted = F - F.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _SplitSearch:
    """Exact greedy split search over columns sorted once per training run.

    The root layout is (d, n): feature f's row numbers sorted by value, ties
    in row order, and the sorted values beside them.  A root search takes the
    residual into that layout; a child's layout is the stable partition of
    the root's by the child's rows, so it stays sorted with ties in row
    order.  Every (d, n) array is allocated here and reused by each search
    of the run; a node of m rows views the first d*m entries as (d, m).
    """

    def __init__(self, X: np.ndarray):
        n, d = X.shape
        self.X, self.n, self.d = X, n, d
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self.values = np.take_along_axis(X.T, self.order, axis=1)
        self.tied = self.values[:, 1:] == self.values[:, :-1]  # no threshold between equal values
        self.residual = np.empty((d, n))  # the current tree's residual in the root layout
        self._member = np.empty(d * n, dtype=bool)
        self._tied = np.empty(d * n, dtype=bool)
        self._values, self._residual, self._sums, self._gain, self._right = (np.empty(d * n) for _ in range(5))
        self._counts = np.arange(1, n, dtype=np.float64)

    def _view(self, buffer: np.ndarray, columns: int) -> np.ndarray:
        return buffer[: self.d * columns].reshape(self.d, columns)

    def root_split(self, residual: np.ndarray):
        """Best split over all rows; keeps ``residual`` for the child searches."""
        # mode="clip" lets take write straight into ``out``; the indices are in range
        np.take(residual, self.order, out=self.residual, mode="clip")
        return self._best(self.values, self.residual, self.tied)

    def child_split(self, member: np.ndarray):
        """Best split over the rows where ``member`` is true, a child of the last root."""
        m = int(np.count_nonzero(member))
        if m < 2:
            return None
        np.take(member, self.order.ravel(), out=self._member, mode="clip")
        picked = np.flatnonzero(self._member)  # m positions per feature, in sorted order
        values = self._view(self._values, m)
        residual = self._view(self._residual, m)
        np.take(self.values.ravel(), picked, out=values.ravel(), mode="clip")
        np.take(self.residual.ravel(), picked, out=residual.ravel(), mode="clip")
        tied = np.equal(values[:, 1:], values[:, :-1], out=self._view(self._tied, m - 1))
        return self._best(values, residual, tied)

    def _best(self, values: np.ndarray, residual: np.ndarray, tied: np.ndarray):
        """Best (gain, feature, threshold) of one node's sorted layout, or None.

        The node has at least two rows.  Ties resolve to the lowest feature
        index, then the lowest threshold.
        """
        m = values.shape[1]
        sums = np.cumsum(residual, axis=1, out=self._view(self._sums, m))
        total = sums[:, -1:]
        left = sums[:, :-1]
        k = self._counts[: m - 1]
        # left**2/k + right**2/(m-k) - total**2/m, step by step in that order so
        # every float equals the plain expression's
        gain = np.square(left, out=self._view(self._gain, m - 1))
        gain /= k
        right = np.subtract(total, left, out=self._view(self._right, m - 1))
        np.square(right, out=right)
        right /= m - k
        gain += right
        gain -= total**2 / m
        np.copyto(gain, -np.inf, where=tied)
        f, pos = divmod(int(np.argmax(gain)), m - 1)
        if not np.isfinite(gain[f, pos]):
            return None
        threshold = 0.5 * (values[f, pos] + values[f, pos + 1])
        # the improvement is non-negative in exact arithmetic; clip fp dust
        return max(float(gain[f, pos]), 0.0), int(f), float(threshold)


def _newton_value(rows: np.ndarray, residual: np.ndarray, weight: np.ndarray, k_classes: int) -> float:
    num = residual[rows].sum() * (k_classes - 1) / k_classes
    den = weight[rows].sum()
    if den <= 0:
        return 0.0
    return float(num / den)


def _fit_two_split_tree(
    search: _SplitSearch,
    residual: np.ndarray,
    weight: np.ndarray,
    k_classes: int,
) -> Tree:
    """Grow a best-first tree with up to two splits over all rows; nodes are row masks."""
    X = search.X

    def leaf_value(rows):
        return _newton_value(rows, residual, weight, k_classes)

    root_split = search.root_split(residual)
    if root_split is None:
        return Tree(values=(leaf_value(np.ones(search.n, dtype=bool)),))

    gain0, f0, t0 = root_split
    root = Split(feature=f0, threshold=t0, gain=gain0)
    goes_left = X[:, f0] <= t0
    children = [goes_left, ~goes_left]

    candidates = [search.child_split(rows) for rows in children]
    # expand the child whose best split improves more; ties expand the left child
    if candidates[0] is None and candidates[1] is None:
        return Tree(values=tuple(leaf_value(rows) for rows in children), root=root)
    if candidates[1] is None:
        side = 0
    elif candidates[0] is None:
        side = 1
    else:
        side = 0 if candidates[0][0] >= candidates[1][0] else 1

    g1, f1, t1 = candidates[side]
    deeper_left = X[:, f1] <= t1
    refined = [children[side] & deeper_left, children[side] & ~deeper_left]
    leaves = [children[0]] + refined if side else refined + [children[1]]
    return Tree(
        values=tuple(leaf_value(rows) for rows in leaves),
        root=root,
        inner=Split(feature=f1, threshold=t1, gain=g1),
        inner_right=bool(side),
    )


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
    trees: list[list[Tree]] = [[] for _ in range(kc)]
    train_deviance: list[float] = []
    val_accuracy: list[float] = []

    for _ in range(max_trees):
        P = _softmax(F)
        residual_all = Y - P
        weight_all = P * (1.0 - P)
        for k in range(kc):
            tree = _fit_two_split_tree(search, residual_all[:, k], weight_all[:, k], kc)
            trees[k].append(tree)
            F[:, k] += shrinkage * tree.predict(X)
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
        raise DimensionMismatchError(f"expected {model.dimension} columns, got {X.shape[1]}")
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
            for split in tree.splits:
                influence[split.feature] += split.gain
    total = influence.sum()
    if total > 0:
        influence /= total
    return influence
