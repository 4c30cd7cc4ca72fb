"""Plain-Python exhaustive split search: the judge for the GB split search.

For every feature, rows are sorted by value with ties in row order, and
every threshold between two distinct neighbouring values is scored.  Prefix
sums are accumulated one row at a time in that sorted order, and the gain is
``left**2/k + right**2/(m-k) - total**2/m`` evaluated in that order, so a
correct vectorised search returns the very same floats.  A candidate
replaces the best so far only when strictly better, which makes ties go to
the lowest feature index, then the lowest threshold.
"""
from __future__ import annotations


def square(v: float) -> float:
    # numpy evaluates ``a**2`` as ``a*a``; libm ``pow`` need not round the same way
    return v * v


def threshold(lo, hi):
    """The split between neighbouring values: their midpoint, or ``lo`` where it rounds out of [lo, hi)."""
    mid = 0.5 * (lo + hi)
    return mid if lo <= mid < hi else lo


def best_split(X, rows, residual):
    """Best ``(gain, feature, threshold)`` over ``rows``, or None when no split exists.

    ``X`` is a list of feature rows, ``residual`` a list indexed by row number.
    """
    m = len(rows)
    if m < 2:
        return None
    best = None
    for f in range(len(X[0])):
        ordered = sorted(rows, key=lambda r: (X[r][f], r))
        values = [X[r][f] for r in ordered]
        prefix = []
        acc = None
        for r in ordered:
            acc = residual[r] if acc is None else acc + residual[r]
            prefix.append(acc)
        total = prefix[-1]
        for k in range(1, m):
            if not values[k] > values[k - 1]:
                continue
            left = prefix[k - 1]
            right = total - left
            gain = square(left) / k + square(right) / (m - k) - square(total) / m
            if best is None or gain > best[0]:
                best = (gain, f, threshold(values[k - 1], values[k]))
    if best is None:
        return None
    return max(best[0], 0.0), best[1], best[2]


def two_split_tree(X, residual):
    """Root split, inner split and the inner split's side, chosen best-first.

    Returns ``(root, inner, inner_right, child_sizes)``; ``root`` and
    ``inner`` are ``(gain, feature, threshold)`` tuples or None.  The child
    whose best split has the larger gain is expanded; equal gains expand the
    left child.
    """
    rows = list(range(len(X)))
    root = best_split(X, rows, residual)
    if root is None:
        return None, None, False, ()
    _, f, t = root
    children = [[r for r in rows if X[r][f] <= t], [r for r in rows if not X[r][f] <= t]]
    left, right = (best_split(X, c, residual) for c in children)
    sizes = tuple(len(c) for c in children)
    if left is None and right is None:
        return root, None, False, sizes
    if right is None or (left is not None and left[0] >= right[0]):
        return root, left, False, sizes
    return root, right, True, sizes
