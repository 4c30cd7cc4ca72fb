"""Independent brute-force oracle for the binary C-SVC dual.

Enumerates every active-set pattern (each alpha at 0, at C, or free), solves
the resulting equality-constrained stationarity system, and keeps the best
feasible candidate.  For a convex QP the optimum's pattern is among those
enumerated, so the maximum over feasible candidates is the exact optimum.
Only viable for a handful of points; that is the point.

Also holds the scalar references the SVM tests check the library against:
the RBF kernel of one pair of vectors, the dual value and the KKT violation.
"""
import itertools
import math

import numpy as np


def rbf_kernel(x, y, gamma):
    """exp(-gamma * ||x - y||^2) for one pair of vectors."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return math.exp(-gamma * float(d @ d))


def dual_value(K, y, alpha):
    """sum(a) - 0.5 a' Q a, the value SMO maximizes."""
    y = np.asarray(y, dtype=float)
    Q = (y[:, None] * y[None, :]) * K
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def kkt_violation(K, y, alpha, bias, C):
    """Largest violation of the C-SVC KKT conditions at (alpha, bias)."""
    y = np.asarray(y, dtype=float)
    margins = y * (K @ (alpha * y) + bias)
    violation = 0.0
    for a, m in zip(alpha, margins):
        if a <= 1e-9:
            violation = max(violation, 1.0 - m)  # should satisfy m >= 1
        elif a >= C - 1e-9:
            violation = max(violation, m - 1.0)  # should satisfy m <= 1
        else:
            violation = max(violation, abs(m - 1.0))
    return max(violation, abs(float(alpha @ y)))


def qp_max_enumerate(K, y, C):
    """Exact maximum of sum(a) - 0.5 a'Qa s.t. 0 <= a <= C, y'a = 0."""
    n = len(y)
    y = np.asarray(y, dtype=float)
    Q = (y[:, None] * y[None, :]) * K
    best = -np.inf
    best_alpha = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.array(pattern)
        alpha = np.where(pattern == 1, float(C), 0.0)
        free = np.flatnonzero(pattern == 2)
        if len(free):
            # stationarity on free vars with multiplier mu for the equality:
            # Q_ff a_f + mu y_f = e_f - Q_fb a_b ;  y_f' a_f = -y_b' a_b
            bound = np.flatnonzero(pattern != 2)
            rhs_top = 1.0 - Q[np.ix_(free, bound)] @ alpha[bound]
            rhs_bot = -(y[bound] @ alpha[bound])
            system = np.zeros((len(free) + 1, len(free) + 1))
            system[: len(free), : len(free)] = Q[np.ix_(free, free)]
            system[: len(free), -1] = y[free]
            system[-1, : len(free)] = y[free]
            rhs = np.append(rhs_top, rhs_bot)
            try:
                solution = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            alpha = alpha.copy()
            alpha[free] = solution[: len(free)]
            if np.any(alpha[free] < -1e-9) or np.any(alpha[free] > C + 1e-9):
                continue
            alpha = np.clip(alpha, 0.0, C)
        if abs(y @ alpha) > 1e-7:
            continue
        value = dual_value(K, y, alpha)
        if value > best:
            best = value
            best_alpha = alpha
    return best, best_alpha
