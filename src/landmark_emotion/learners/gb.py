"""Multiclass gradient boosting with two-split regression trees.

One tree per class per iteration is fit to the negative gradient of the
multinomial deviance; leaf values take the per-leaf Newton step.  Trees are
grown best-first to exactly two internal splits (three leaves) by exact
greedy search over every feature, thresholds at midpoints between distinct
sorted values, or at the lower value where the midpoint does not round into
[lower, upper).  All tie-breaks are deterministic (lowest feature index, then
lowest threshold), and training rows are put into a canonical order first so
results do not depend on how the caller shuffled the samples.

Every column is sorted once per training run (XGBoost's exact greedy search
over pre-sorted columns).  A root search takes the residual into that sorted
(features × rows) layout; a child's layout is a stable partition of the
root's, never a fresh gather from the feature matrix.  A child finds its
tied neighbours from the ranks of the distinct sorted values, and a split's
threshold is read from the feature matrix at the winning pair only.  The
prefix sums and the gain formula run in work buffers allocated once per
run; a child search allocates only the index of its positions in the root
layout.

No split of a node can gain more than the node's squared error about its
mean, S - (sum r)**2 / m, whatever the feature.  So the two children of the
root are searched in order of that bound, larger first (the left child on
equal bounds), and the second search is skipped when the first child's best
gain beats the second's bound by more than 1e-6 * S.  Rounding moves the
computed gain and bound by about 1e-13 * S at the sizes this code sees, far
inside that margin, so a skipped child is never one that would have been
expanded: the trees, their gains and the model bytes are those of searching
both children.

The K trees of one round depend only on that round's residuals, so W =
min(CPUs this process may use, K) searches fit them together, each with its
own work buffers over the shared sorted layout.  Search s fits the stripe of
classes s, s + W, s + 2W, … every round: search 0 on the calling thread, the
others on the W − 1 threads of one helper pool that lives for the whole run.
numpy releases the GIL in the gathers, prefix sums and gain arithmetic, so
the stripes really run at once.  A one-CPU process starts no thread.  Trees
are kept and scores updated in class order after the round, so the model
does not depend on the thread count; a failure in any stripe is raised once
the other stripes of its round have finished.

The config, ``gb_train`` and the model loader share ``check_gb_parameters``.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..errors import LandmarkEmotionError
from .dataset import LabeledDataset, canonical_order, check_fit_inputs

DEFAULT_SHRINKAGE = 0.1
DEFAULT_MAX_TREES = 100


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


def check_gb_parameters(shrinkage: float, tree_count: int) -> None:
    """Reject a shrinkage outside (0, 1] or fewer than one tree per class."""
    if not 0 < shrinkage <= 1:
        raise LandmarkEmotionError(f"shrinkage must be in (0, 1], got {shrinkage}")
    if tree_count < 1:
        raise LandmarkEmotionError(f"tree count must be at least 1, got {tree_count}")


class _SortedColumns:
    """Every column of ``X`` sorted once per training run; read-only, shared by every search.

    ``order`` is (d, n): feature f's row numbers sorted by value, ties in
    row order.  ``rank`` numbers the distinct values of each sorted column
    from 0, so two positions hold equal values exactly when their ranks are
    equal; ``tied`` marks the neighbours in ``order`` with no threshold
    between them.
    """

    def __init__(self, X: np.ndarray):
        n, d = X.shape
        self.X, self.n, self.d = X, n, d
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        values = np.take_along_axis(X.T, self.order, axis=1)
        self.tied = values[:, 1:] == values[:, :-1]
        self.rank = np.zeros((d, n), dtype=np.int32)
        np.cumsum(~self.tied, axis=1, out=self.rank[:, 1:])


class _SplitSearch:
    """Exact greedy split search over the shared sorted columns, in its own work buffers.

    A root search takes the residual into the sorted (d, n) layout; a
    child's layout is the stable partition of the root's by the child's
    rows, so it stays sorted with ties in row order.  Every (d, n) buffer is
    allocated here and reused by each search of the run; a node of m rows
    views the first d*m entries as (d, m).  One thread uses one search.
    """

    def __init__(self, columns: _SortedColumns):
        d, n = columns.d, columns.n
        self.columns, self.X, self.n, self.d = columns, columns.X, n, d
        self.residual = np.empty((d, n))  # the current tree's residual in the root layout
        self._member = np.empty(d * n, dtype=bool)  # a child's rows in the root layout, then its ties
        # a child's residual, then the gain of every node: cumsum has read the residual by then
        self._residual = np.empty(d * n)
        # a child's ranks (as int32), then prefix sums, then the right-hand sums of the gain
        self._sums = np.empty(d * n)
        self._counts = np.arange(1, n, dtype=np.float64)

    def _view(self, buffer: np.ndarray, columns: int) -> np.ndarray:
        return buffer[: self.d * columns].reshape(self.d, columns)

    def root_split(self, residual: np.ndarray):
        """Best split over all rows; keeps ``residual`` for the child searches."""
        # mode="clip" lets take write straight into ``out``; the indices are in range
        np.take(residual, self.columns.order, out=self.residual, mode="clip")
        return self._best(self.residual, self.columns.tied, None)

    def child_split(self, member: np.ndarray):
        """Best split over the rows where ``member`` is true, a child of the last root."""
        m = int(np.count_nonzero(member))
        if m < 2:
            return None
        np.take(member, self.columns.order.ravel(), out=self._member, mode="clip")
        picked = np.flatnonzero(self._member)  # m positions per feature, in sorted order
        residual = self._view(self._residual, m)
        rank = self._view(self._sums.view(np.int32), m)
        np.take(self.residual.ravel(), picked, out=residual.ravel(), mode="clip")
        np.take(self.columns.rank.ravel(), picked, out=rank.ravel(), mode="clip")
        tied = np.equal(rank[:, 1:], rank[:, :-1], out=self._view(self._member, m - 1))
        return self._best(residual, tied, picked)

    def _best(self, residual: np.ndarray, tied: np.ndarray, picked: np.ndarray | None):
        """Best (gain, feature, threshold) of one node's sorted layout, or None.

        The node has at least two rows; ``picked`` holds a child's positions
        in the flat root layout, and is None at the root.  Ties resolve to
        the lowest feature index, then the lowest threshold.
        """
        m = residual.shape[1]
        sums = np.cumsum(residual, axis=1, out=self._view(self._sums, m))
        total = sums[:, -1:]
        left = sums[:, :-1]
        k = self._counts[: m - 1]
        # left**2/k + right**2/(m-k) - total**2/m, step by step in that order so
        # every float equals the plain expression's
        gain = np.square(left, out=self._view(self._residual, m - 1))
        gain /= k
        right = np.subtract(total, left, out=left)
        np.square(right, out=right)
        right /= m - k
        gain += right
        gain -= total**2 / m
        np.copyto(gain, -np.inf, where=tied)
        f, pos = divmod(int(np.argmax(gain)), m - 1)
        if not np.isfinite(gain[f, pos]):
            return None
        # the threshold lies between the winning position and the next; at the
        # root, m == n and the flat root positions are the layout's own
        pair = slice(f * m + pos, f * m + pos + 2)
        lo, hi = self.X[self.columns.order.ravel()[pair if picked is None else picked[pair]], f].tolist()
        # the midpoint of neighbouring floats can round onto hi, and lo + hi can overflow
        mid = 0.5 * (lo + hi)
        threshold = mid if lo <= mid < hi else lo
        # the improvement is non-negative in exact arithmetic; clip fp dust
        return max(float(gain[f, pos]), 0.0), int(f), threshold


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
    """Grow a best-first tree with up to two splits over all rows; nodes are row masks.

    The child with the larger bound S - (sum r)**2 / m is searched first, and
    the other is skipped when the first's best gain beats that child's bound
    by more than 1e-6 * S: the skipped child could not have been expanded.
    """
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

    # No split of a child gains more than its squared error about its mean,
    # whatever the feature.  The computed gain and bound each stray from exact
    # arithmetic by about 10 * m * 2**-53 * S (1e-13 * S at m = 952), far
    # inside the 1e-6 * S margin, so the skip never changes which child is
    # expanded.
    parts = [residual[rows] for rows in children]
    squares = [float(r @ r) for r in parts]
    bounds = [s - r.sum() ** 2 / len(r) for r, s in zip(parts, squares)]
    first = 0 if bounds[0] >= bounds[1] else 1
    other = 1 - first
    candidates = [None, None]
    candidates[first] = search.child_split(children[first])
    if candidates[first] is None or not candidates[first][0] > bounds[other] + 1e-6 * squares[other]:
        candidates[other] = search.child_split(children[other])
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


def _cpu_count() -> int:
    """CPUs this process may run on; a round fits that many trees at once, at most one per class."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fit_stripe(
    search: _SplitSearch, s: int, w: int, residual_all: np.ndarray, weight_all: np.ndarray
) -> list[Tree]:
    """The round's trees of classes s, s + w, s + 2w, …, in that order, all on one search."""
    kc = residual_all.shape[1]
    return [_fit_two_split_tree(search, residual_all[:, k], weight_all[:, k], kc) for k in range(s, kc, w)]


def gb_train(
    train: LabeledDataset,
    val: LabeledDataset,
    shrinkage: float = DEFAULT_SHRINKAGE,
    max_trees: int = DEFAULT_MAX_TREES,
) -> GBModel:
    """Boost two-split trees; keep the tree count with the best validation accuracy."""
    check_gb_parameters(shrinkage, max_trees)
    classes = check_fit_inputs(train, val)

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

    columns = _SortedColumns(X)
    w = min(_cpu_count(), kc)
    searches = [_SplitSearch(columns) for _ in range(w)]  # allocated here, on the calling thread
    trees: list[list[Tree]] = [[] for _ in range(kc)]
    train_deviance: list[float] = []
    val_accuracy: list[float] = []

    # an executor starts a thread only on submit, so one search starts none;
    # leaving the block, also by an exception, waits for every running stripe
    with ThreadPoolExecutor(max_workers=max(w - 1, 1)) as pool:
        for _ in range(max_trees):
            P = _softmax(F)
            residual_all = Y - P
            weight_all = P * (1.0 - P)
            running = [pool.submit(_fit_stripe, searches[s], s, w, residual_all, weight_all) for s in range(1, w)]
            stripes = [_fit_stripe(searches[0], 0, w, residual_all, weight_all)]
            stripes += [future.result() for future in running]
            for k in range(kc):
                tree = stripes[k % w][k // w]
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
        raise LandmarkEmotionError(f"expected {model.dimension} columns, got {X.shape[1]}")
    scores = np.tile(model.init_scores, (X.shape[0], 1))
    for k in range(len(model.classes)):
        for tree in model.trees[k][: model.tree_count]:
            scores[:, k] += model.shrinkage * tree.predict(X)
    return scores


def gb_predict_batch(model: GBModel, X: np.ndarray) -> np.ndarray:
    """Predicted global class indices for each row of ``X``; argmax ties pick the earliest class."""
    scores = gb_scores(model, X)
    return np.array(model.classes)[np.argmax(scores, axis=1)]


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
