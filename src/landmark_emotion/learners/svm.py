"""RBF-kernel support vector machines trained by sequential minimal optimization.

Binary subproblems solve the standard C-SVC dual

    min  0.5 * a' Q a - e' a    s.t.  0 <= a_i <= C,  y' a = 0,  Q_ij = y_i y_j K_ij

with maximal-violating-pair working-set selection.  Multiclass reduction is
one-vs-one with majority voting.  Everything is deterministic: the training
rows are scaled and put into one canonical order per training set, each
subproblem takes its rows in that order, and all tie-breaks are first-index.

Training is two steps.  The data step scales and orders the rows, computes
their squared distances and indexes each class pair's rows; the solve step
takes a kernel over all rows and C and runs one SMO per pair.  ``svm_train``
runs each once.  ``grid_search`` runs the data step once per grid, builds the
training and validation kernels once per gamma, and runs only the solve step
per cell, so the cells of one gamma share its kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatchError
from .dataset import CLASSES, LabeledDataset, canonical_order

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000
_TAU = 1e-12

DEFAULT_C_GRID = tuple(2.0**e for e in range(-5, 16, 2))
DEFAULT_GAMMA_GRID = tuple(2.0**e for e in range(-15, 4, 2))


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped to be non-negative."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    aa = np.sum(A**2, axis=1)[:, None]
    bb = np.sum(B**2, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)


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
    C: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, float, int]:
    """Solve one binary C-SVC dual; returns (alpha, bias, iterations).

    ``K`` is the full kernel matrix, ``y`` a +-1 vector.  The bias is for the
    decision function f(x) = sum_i alpha_i y_i K(x_i, x) + bias.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if K.shape != (n, n):
        raise DimensionMismatchError(f"kernel matrix {K.shape} does not match {n} labels")
    Q = (y[:, None] * y[None, :]) * K
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0

    neg_yg = np.empty(n)
    # index sets of the maximal-violating-pair rule; a step changes only
    # alpha[i] and alpha[j], so only those two entries are refreshed after it
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        np.multiply(-y, grad, out=neg_yg)
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
        j = int(np.argmin(np.where(low, neg_yg, np.inf)))
        if neg_yg[i] - neg_yg[j] <= tol:
            iterations -= 1
            break

        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], _TAU)
        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > C:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = total - C
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = total - C
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total

        grad += Q[:, i] * (alpha[i] - old_i) + Q[:, j] * (alpha[j] - old_j)
        for k in (i, j):
            up[k] = (y[k] > 0 and alpha[k] < C) or (y[k] < 0 and alpha[k] > 0)
            low[k] = (y[k] < 0 and alpha[k] < C) or (y[k] > 0 and alpha[k] > 0)

    bias = _compute_bias(y, alpha, grad, C)
    return alpha, bias, iterations


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
    """One class-pair classifier: positive decisions vote for ``pos_class``."""

    pos_class: int
    neg_class: int
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
    scaler: Scaler | None
    spec_digest: str = ""

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def _check_hyperparameters(C: float, gamma: float) -> None:
    # C = inf is a valid hard margin; gamma = inf puts inf * 0 = NaN on the kernel diagonal
    if not C > 0 or not 0 < gamma < np.inf:
        raise DimensionMismatchError(
            f"C must be positive and gamma positive and finite, got C={C}, gamma={gamma}"
        )


@dataclass(frozen=True)
class _TrainingData:
    """What training needs from the rows alone, whatever C and gamma are."""

    classes: tuple[int, ...]
    X: np.ndarray  # scaled training rows in canonical order
    sqdist: np.ndarray  # squared_distances(X, X)
    pairs: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]  # (pos, neg, rows of X, +-1 labels)


def _prepare(train: LabeledDataset, scaler: Scaler | None) -> _TrainingData:
    """The data step: scale, order canonically, and index each class pair's rows."""
    train.require_labeled()
    classes = train.classes_present()
    if len(classes) < 2:
        raise DimensionMismatchError("SVM training needs at least two classes present")
    X = train.X if scaler is None else scaler.transform(train.X)
    # on ties the larger class sorts first: it is the -1 label of every pair it is in
    order = canonical_order(X, -train.y)
    X, y = X[order], train.y[order]
    pairs = []
    for ai in range(len(classes)):
        for bi in range(ai + 1, len(classes)):
            pos, neg = classes[ai], classes[bi]
            rows = np.flatnonzero((y == pos) | (y == neg))
            pairs.append((pos, neg, rows, np.where(y[rows] == pos, 1.0, -1.0)))
    return _TrainingData(classes=classes, X=X, sqdist=squared_distances(X, X), pairs=tuple(pairs))


def _solve(data: _TrainingData, K: np.ndarray, C: float) -> tuple[np.ndarray, tuple[BinaryMachine, ...]]:
    """The solve step: one SMO per class pair on the kernel ``K`` over all of ``data.X``.

    Returns the rows of ``data.X`` that are support vectors of some machine,
    ascending, and the machines, whose ``sv_indices`` point into those rows.
    """
    solved = []
    for pos, neg, rows, labels in data.pairs:
        alpha, bias, _ = smo_solve(K[np.ix_(rows, rows)], labels, C)
        sv = np.flatnonzero(alpha > 1e-12)
        solved.append((pos, neg, rows[sv], (alpha * labels)[sv], bias))

    used = np.unique(np.concatenate([sv_rows for _, _, sv_rows, _, _ in solved]))
    machines = tuple(
        BinaryMachine(pos, neg, np.searchsorted(used, sv_rows), coef, float(bias))
        for pos, neg, sv_rows, coef, bias in solved
    )
    return used, machines


def svm_train(train: LabeledDataset, C: float, gamma: float, scaler: Scaler | None = None) -> SVMModel:
    """Train one-vs-one binary machines on raw rows, scaled by ``scaler`` when given."""
    _check_hyperparameters(C, gamma)
    data = _prepare(train, scaler)
    used, machines = _solve(data, np.exp(-gamma * data.sqdist), C)
    return SVMModel(
        classes=data.classes, vectors=data.X[used], machines=machines, gamma=gamma, C=C, scaler=scaler
    )


def _count_votes(K: np.ndarray, machines: Sequence[BinaryMachine]) -> np.ndarray:
    """Vote counts per global class, from the kernel between rows and the support-vector table."""
    votes = np.zeros((K.shape[0], len(CLASSES)), dtype=np.int64)
    for m in machines:
        dec = K[:, m.sv_indices] @ m.coef + m.bias
        votes[:, m.pos_class] += dec > 0
        votes[:, m.neg_class] += ~(dec > 0)
    return votes


def svm_decision_votes(model: SVMModel, X: np.ndarray) -> np.ndarray:
    """Vote counts per global class for each raw row of ``X``; the model's scaler applies."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.dimension:
        raise DimensionMismatchError(f"expected {model.dimension} columns, got {X.shape[1]}")
    if model.scaler is not None:
        X = model.scaler.transform(X)
    K = rbf_kernel_matrix(X, model.vectors, model.gamma) if len(model.vectors) else np.zeros((X.shape[0], 0))
    return _count_votes(K, model.machines)


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
    scores it as ``svm_predict_batch`` would.  The data step runs once, the
    kernels once per gamma, and each cell runs only the solve step.
    """
    if len(val) == 0:
        raise DimensionMismatchError("grid search needs a non-empty validation set")
    if not C_grid or not gamma_grid:
        raise DimensionMismatchError("grids must be non-empty")
    if val.dimension != train.dimension:
        raise DimensionMismatchError(
            f"validation rows have {val.dimension} columns, training rows {train.dimension}"
        )
    C_grid = tuple(float(c) for c in C_grid)
    gamma_grid = tuple(float(g) for g in gamma_grid)
    for C in C_grid:
        for gamma in gamma_grid:
            _check_hyperparameters(C, gamma)
    val.require_labeled()

    scaler = fit_scaler(train)
    data = _prepare(train, scaler)
    val_sqdist = squared_distances(scaler.transform(val.X), data.X)
    accuracy = np.zeros((len(C_grid), len(gamma_grid)))
    for gi, gamma in enumerate(gamma_grid):
        K = np.exp(-gamma * data.sqdist)
        K_val = np.exp(-gamma * val_sqdist)
        for ci, C in enumerate(C_grid):
            used, machines = _solve(data, K, C)
            pred = np.argmax(_count_votes(K_val[:, used], machines), axis=1)
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
