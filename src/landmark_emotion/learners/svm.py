"""RBF-kernel support vector machines trained by sequential minimal optimization.

Binary subproblems solve the standard C-SVC dual

    min  0.5 * a' Q a - e' a    s.t.  0 <= a_i <= C,  y' a = 0,  Q_ij = y_i y_j K_ij

with maximal-violating-pair working-set selection (Platt, 1998; Keerthi et
al., 2001).  ``smo_solve`` solves a stack of such duals in lock step (one
dual is a stack of one): each round steps every problem still running, with
the same IEEE operations per problem as a one-problem loop, so a problem gets
the same alpha, bias and iteration count whatever it is stacked with.  It
solves every kernel of its stack at every C of a list and, like LIBSVM,
stores no Q: each step forms the two columns of Q it needs from the kernel.
Multiclass reduction is one-vs-one with majority voting.  Every model is
scaled: training maps the rows to [-1, 1] with a ``Scaler`` fit on the
training split, the model stores it, and prediction applies it.  Everything
is deterministic: the scaled training rows are put into one canonical order
per training set, each subproblem takes its rows in that order, and all
tie-breaks are first-index.

Training is two steps.  The data step scales and orders the rows and lays
out each class pair's squared distances and labels, zero-padded to the
largest pair; the solve step takes the kernels of those pairs and a list of
C values and solves every (C, pair) dual in one ``smo_solve`` call.
``svm_train`` runs each once, with one C.  ``grid_search`` runs the data step
once per grid, and per gamma builds the pair and validation kernels and runs
the solve step once over every C, so the cells of one gamma share one copy
of each pair kernel.

The config, both trainers and the model loader share ``check_svm_parameters``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from ..errors import LandmarkEmotionError
from .dataset import CLASSES, LabeledDataset, canonical_order, check_fit_inputs

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000
_TAU = 1e-12

DEFAULT_C_GRID = tuple(2.0**e for e in range(-5, 16, 2))
DEFAULT_GAMMA_GRID = tuple(2.0**e for e in range(-15, 4, 2))


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, each a sum of squared coordinate differences.

    Not ``|a|^2 + |b|^2 - 2 a.b``: the bits of a BLAS product depend on the
    thread count, and these distances fix the model's bytes.
    """
    return cdist(np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64), "sqeuclidean")


def rbf_kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * squared_distances(A, B))


@dataclass(frozen=True)
class Scaler:
    """Per-dimension affine map sending training min -> -1 and max -> +1.

    Dimensions that were constant in training map to 0 everywhere.
    """

    lo: np.ndarray
    hi: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        span = self.hi - self.lo
        safe = np.where(span > 0, span, 1.0)
        scaled = 2.0 * (X - self.lo) / safe - 1.0
        return np.where(span > 0, scaled, 0.0)


def fit_scaler(train: LabeledDataset) -> Scaler:
    return Scaler(lo=train.X.min(axis=0), hi=train.X.max(axis=0))


def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: Sequence[float],
    *,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve k binary C-SVC duals at each of m values of C, all in lock step.

    ``K`` is (k, n, n), ``y`` (k, n) with labels of +-1 and ``C`` a list of m
    values; problem ``c * k + b`` solves kernel ``b`` at ``C[c]``.  Returns
    alpha (m * k, n), bias (m * k,) and the most iterations any one problem
    took.  A label of 0 marks a padding row: its row and column of Q are zero
    and it never enters the working set, so duals of fewer rows are
    zero-padded to n.  The bias is for the decision function
    f(x) = sum_i alpha_i y_i K(x_i, x) + bias.

    Each round takes one maximal-violating-pair step in every problem still
    running, with the same IEEE operations a one-problem loop makes, so a
    problem's alpha, bias and iteration count do not depend on its stack.  A
    problem stops, and is frozen, once its pair violates by at most
    ``DEFAULT_TOL`` or after ``max_iter`` steps.
    """
    y = np.asarray(y, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    if y.ndim != 2 or K.shape != y.shape + y.shape[-1:]:
        raise LandmarkEmotionError(f"kernel matrix {K.shape} does not match labels {y.shape}")
    k, n = y.shape
    Cs = np.asarray(C, dtype=np.float64)
    if Cs.ndim != 1:
        raise LandmarkEmotionError(f"C must be a list of values, got shape {Cs.shape}")
    p = Cs.size * k
    alpha = np.zeros((p, n))
    grad = -np.ones((p, n))  # gradient of the dual objective at alpha = 0
    iterations = np.zeros(p, dtype=np.int64)

    # the problems still running, and their state; a stopped problem's
    # alpha and gradient go back into ``alpha`` and ``grad``
    run = np.arange(p)
    kern = run % k
    a, g, yr, c = alpha.copy(), grad.copy(), y[kern], np.repeat(Cs, k)
    neg_y = -yr
    # index sets of the maximal-violating-pair rule; a step changes only
    # alpha[i] and alpha[j], so only those two entries are refreshed after it
    up = ((yr > 0) & (a < c[:, None])) | ((yr < 0) & (a > 0))
    low = ((yr < 0) & (a < c[:, None])) | ((yr > 0) & (a > 0))
    rounds = 0
    while run.size and rounds < max_iter:
        rounds += 1
        neg_yg = neg_y * g
        i = np.argmax(np.where(up, neg_yg, -np.inf), axis=1)
        j = np.argmin(np.where(low, neg_yg, np.inf), axis=1)
        r = np.arange(run.size)
        empty = ~(up.any(axis=1) & low.any(axis=1))
        converged = ~empty & (neg_yg[r, i] - neg_yg[r, j] <= DEFAULT_TOL)
        stop = empty | converged
        if stop.any():
            # a problem with an empty index set counts the round it stopped in
            iterations[run[stop]] = rounds - converged[stop]
            alpha[run[stop]], grad[run[stop]] = a[stop], g[stop]
            go = ~stop
            run, kern, a, g, yr, neg_y, c, up, low, i, j = (
                v[go] for v in (run, kern, a, g, yr, neg_y, c, up, low, i, j)
            )
            if not run.size:
                break
            r = np.arange(run.size)

        quad = K[kern, i, i] + K[kern, j, j] - 2.0 * K[kern, i, j]
        quad = np.where(_TAU > quad, _TAU, quad)  # max(quad, _TAU)
        old_i, old_j = a[r, i], a[r, j]
        g_i, g_j = g[r, i], g[r, j]
        y_i, y_j = yr[r, i], yr[r, j]
        split = y_i != y_j
        delta = np.where(split, -g_i - g_j, g_i - g_j) / quad
        a_i = np.where(split, old_i + delta, old_i - delta)
        a_j = old_j + delta
        # clip back into the box along the constraint line; the second test
        # of each branch sees what the first one set
        diff, total = old_i - old_j, old_i + old_j
        pos, over = split & (diff > 0), ~split & (total > c)
        neg, under = split & ~pos, ~split & ~over
        a_i, a_j = _set_where(pos & (a_j < 0), a_i, a_j, diff, 0.0)
        a_i, a_j = _set_where(pos & (a_i > c), a_i, a_j, c, c - diff)
        a_i, a_j = _set_where(neg & (a_i < 0), a_i, a_j, 0.0, -diff)
        a_i, a_j = _set_where(neg & (a_j > c), a_i, a_j, c + diff, c)
        a_i, a_j = _set_where(over & (a_i > c), a_i, a_j, c, total - c)
        a_i, a_j = _set_where(over & (a_j > c), a_i, a_j, total - c, c)
        a_i, a_j = _set_where(under & (a_j < 0), a_i, a_j, total, 0.0)
        a_i, a_j = _set_where(under & (a_i < 0), a_i, a_j, 0.0, total)

        # columns i and j of Q, formed from the kernel as y_l y_i K_li
        Q_i = (yr * y_i[:, None]) * K[kern, :, i]
        Q_j = (yr * y_j[:, None]) * K[kern, :, j]
        g += Q_i * (a_i - old_i)[:, None] + Q_j * (a_j - old_j)[:, None]
        a[r, i], a[r, j] = a_i, a_j
        for idx, y_idx, a_idx in ((i, y_i, a_i), (j, y_j, a_j)):
            up[r, idx] = ((y_idx > 0) & (a_idx < c)) | ((y_idx < 0) & (a_idx > 0))
            low[r, idx] = ((y_idx < 0) & (a_idx < c)) | ((y_idx > 0) & (a_idx > 0))
    iterations[run] = rounds
    alpha[run], grad[run] = a, g

    bias = np.array([_compute_bias(y[b % k], alpha[b], grad[b], Cs[b // k]) for b in range(p)])
    return alpha, bias, int(iterations.max(initial=0))


def _set_where(mask, a_i, a_j, value_i, value_j):
    """(a_i, a_j) with (value_i, value_j) in the problems where ``mask`` holds."""
    return np.where(mask, value_i, a_i), np.where(mask, value_j, a_j)


def _compute_bias(y: np.ndarray, alpha: np.ndarray, grad: np.ndarray, C: float) -> float:
    """Bias from the KKT conditions; average over free vectors when any exist."""
    yg = y * grad
    free = (alpha > 0) & (alpha < C)
    if free.any():
        rho = float(yg[free].mean())
    else:
        upper = np.where((alpha <= 0) & (y > 0) | (alpha >= C) & (y < 0), yg, np.inf)
        lower = np.where((alpha <= 0) & (y < 0) | (alpha >= C) & (y > 0), yg, -np.inf)
        rho = (float(upper.min()) + float(lower.max())) / 2.0
    return -rho


@dataclass(frozen=True)
class BinaryMachine:
    """Machine ``b`` decides pair ``b`` of ``combinations(classes, 2)``; positive votes for its first class."""

    sv_indices: np.ndarray  # into SVMModel.vectors
    coef: np.ndarray  # alpha_i * y_i per support vector
    bias: float


@dataclass(frozen=True)
class SVMModel:
    """One-vs-one RBF SVM over the fixed class order."""

    classes: tuple[int, ...]
    vectors: np.ndarray  # shared support-vector table: scaled training rows in canonical order
    machines: tuple[BinaryMachine, ...]
    gamma: float
    C: float
    scaler: Scaler
    spec_digest: str = ""
    mean_shape: np.ndarray | None = None  # (68, 2) training mean shape, for axis features

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def check_svm_parameters(C_values: Sequence[float], gamma_values: Sequence[float]) -> None:
    """Reject an empty list, a C outside (0, inf] or a gamma outside (0, inf)."""
    if len(C_values) == 0 or len(gamma_values) == 0:
        raise LandmarkEmotionError("C and gamma each need at least one value")
    # C = inf is a valid hard margin; gamma = inf puts inf * 0 = NaN on the kernel diagonal
    for C in C_values:
        if not C > 0:
            raise LandmarkEmotionError(f"C must be positive, got {C}")
    for gamma in gamma_values:
        if not 0 < gamma < np.inf:
            raise LandmarkEmotionError(f"gamma must be positive and finite, got {gamma}")


@dataclass(frozen=True)
class _TrainingData:
    """What training needs from the rows alone, whatever C and gamma are.

    Pair ``b`` of ``combinations(classes, 2)`` owns entry ``b`` of ``pairs``, ``sqdist`` and
    ``labels``: its rows, their squared distances and +-1 labels, zero-padded to the largest pair.
    """

    classes: tuple[int, ...]
    X: np.ndarray  # scaled training rows in canonical order
    pairs: tuple[np.ndarray, ...]  # rows of X
    sqdist: np.ndarray  # (pairs, size, size)
    labels: np.ndarray  # (pairs, size); 0 marks a padding row


def _prepare(train: LabeledDataset, scaler: Scaler) -> _TrainingData:
    """The data step: scale, order canonically, and lay out each class pair's dual."""
    classes = check_fit_inputs(train)
    X = scaler.transform(train.X)
    # on ties the larger class sorts first: it is the -1 label of every pair it is in
    order = canonical_order(X, -train.y)
    X, y = X[order], train.y[order]
    pairs = [np.flatnonzero((y == pos) | (y == neg)) for pos, neg in combinations(classes, 2)]
    size = max(len(rows) for rows in pairs)
    full = squared_distances(X, X)
    sqdist, labels = np.zeros((len(pairs), size, size)), np.zeros((len(pairs), size))
    for b, ((pos, _), rows) in enumerate(zip(combinations(classes, 2), pairs)):
        sqdist[b, : len(rows), : len(rows)] = full[np.ix_(rows, rows)]
        labels[b, : len(rows)] = np.where(y[rows] == pos, 1.0, -1.0)
    return _TrainingData(classes=classes, X=X, pairs=tuple(pairs), sqdist=sqdist, labels=labels)


def _solve(
    data: _TrainingData, K: np.ndarray, Cs: Sequence[float]
) -> list[tuple[np.ndarray, tuple[BinaryMachine, ...]]]:
    """The solve step: one SMO per class pair and C, all in one lock-step stack.

    ``K`` is the stack of pair kernels, laid out as ``data.sqdist``; each C
    solves every pair from that one copy.  Returns, per C, the rows of
    ``data.X`` that are support vectors of some machine, ascending, and the
    machines, whose ``sv_indices`` point into those rows.
    """
    alphas, biases, _ = smo_solve(K, data.labels, Cs)

    solved = []
    for alpha, bias in zip(alphas.reshape(len(Cs), *data.labels.shape), biases.reshape(len(Cs), -1)):
        found = []
        for rows, labels, a, b in zip(data.pairs, data.labels, alpha, bias):
            a = a[: len(rows)]
            sv = np.flatnonzero(a > 1e-12)
            found.append((rows[sv], (a * labels[: len(rows)])[sv], b))
        used = np.unique(np.concatenate([sv_rows for sv_rows, _, _ in found]))
        machines = tuple(
            BinaryMachine(np.searchsorted(used, sv_rows), coef, float(b)) for sv_rows, coef, b in found
        )
        solved.append((used, machines))
    return solved


def svm_train(train: LabeledDataset, C: float, gamma: float, scaler: Scaler) -> SVMModel:
    """Train one-vs-one binary machines on raw rows, scaled by ``scaler``."""
    check_svm_parameters([C], [gamma])
    data = _prepare(train, scaler)
    [(used, machines)] = _solve(data, np.exp(-gamma * data.sqdist), [C])
    return SVMModel(
        classes=data.classes, vectors=data.X[used], machines=machines, gamma=gamma, C=C, scaler=scaler
    )


def _count_votes(K: np.ndarray, classes: Sequence[int], machines: Sequence[BinaryMachine]) -> np.ndarray:
    """Vote counts per global class, from the kernel between rows and the support-vector table."""
    votes = np.zeros((K.shape[0], len(CLASSES)), dtype=np.int64)
    for (pos, neg), m in zip(combinations(classes, 2), machines, strict=True):
        dec = K[:, m.sv_indices] @ m.coef + m.bias
        votes[:, pos] += dec > 0
        votes[:, neg] += ~(dec > 0)
    return votes


def svm_decision_votes(model: SVMModel, X: np.ndarray) -> np.ndarray:
    """Vote counts per global class for each raw row of ``X``; the model's scaler applies."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.dimension:
        raise LandmarkEmotionError(f"expected {model.dimension} columns, got {X.shape[1]}")
    X = model.scaler.transform(X)
    K = rbf_kernel_matrix(X, model.vectors, model.gamma) if len(model.vectors) else np.zeros((X.shape[0], 0))
    return _count_votes(K, model.classes, model.machines)


def svm_predict_batch(model: SVMModel, X: np.ndarray) -> np.ndarray:
    """Predicted class indices for each raw row of ``X``; vote ties pick the earliest class."""
    return np.argmax(svm_decision_votes(model, X), axis=1)


@dataclass(frozen=True)
class GridSearchResult:
    """Validation accuracies over the (C, gamma) grid and the selected cell."""

    C: float
    gamma: float
    C_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    accuracy: np.ndarray  # shape (len(C_grid), len(gamma_grid))
    best_accuracy: float

    def curve_text(self) -> str:
        header = "C\\gamma " + " ".join(f"{g:.3g}" for g in self.gamma_grid)
        lines = [header]
        for i, c in enumerate(self.C_grid):
            cells = " ".join(f"{100 * a:.1f}" for a in self.accuracy[i])
            lines.append(f"{c:.3g} {cells}")
        lines.append(
            f"best C={self.C:.6g} gamma={self.gamma:.6g} "
            f"validation_accuracy={100 * self.best_accuracy:.1f}%"
        )
        return "\n".join(lines) + "\n"


def grid_search(
    train: LabeledDataset,
    val: LabeledDataset,
    C_grid: Sequence[float] = DEFAULT_C_GRID,
    gamma_grid: Sequence[float] = DEFAULT_GAMMA_GRID,
) -> GridSearchResult:
    """Train on ``train`` per cell, score on ``val``; ties prefer small C then small gamma.

    Every cell trains what ``svm_train`` with ``fit_scaler(train)`` would, and
    scores it as ``svm_predict_batch`` would.  The data step runs once, and
    the kernels and one solve step over every C once per gamma.
    """
    C_grid = tuple(float(c) for c in C_grid)
    gamma_grid = tuple(float(g) for g in gamma_grid)
    check_svm_parameters(C_grid, gamma_grid)
    check_fit_inputs(train, val)

    scaler = fit_scaler(train)
    data = _prepare(train, scaler)
    val_sqdist = squared_distances(scaler.transform(val.X), data.X)
    accuracy = np.zeros((len(C_grid), len(gamma_grid)))
    for gi, gamma in enumerate(gamma_grid):
        K_val = np.exp(-gamma * val_sqdist)
        for ci, (used, machines) in enumerate(_solve(data, np.exp(-gamma * data.sqdist), C_grid)):
            pred = np.argmax(_count_votes(K_val[:, used], data.classes, machines), axis=1)
            accuracy[ci, gi] = float(np.mean(pred == val.y))

    best_acc = float(accuracy.max())
    best_C, best_gamma = min(
        (C_grid[ci], gamma_grid[gi])
        for ci in range(len(C_grid))
        for gi in range(len(gamma_grid))
        if accuracy[ci, gi] == best_acc
    )
    return GridSearchResult(
        C=best_C,
        gamma=best_gamma,
        C_grid=C_grid,
        gamma_grid=gamma_grid,
        accuracy=accuracy,
        best_accuracy=best_acc,
    )
