"""One-problem SMO loop: the reference the lock-step solver must match bit for bit.

This is the solver ``learners/svm.py`` ran before it solved a stack of
duals in lock step, kept verbatim.  ``tests/test_svm.py`` compares the
stacked solver's alpha bytes, biases and per-problem iteration counts
against it.
"""
from __future__ import annotations

import numpy as np

from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.learners.svm import _TAU, DEFAULT_MAX_ITER, DEFAULT_TOL, _compute_bias


def reference_smo_solve(
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
        raise LandmarkEmotionError(f"kernel matrix {K.shape} does not match {n} labels")
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
