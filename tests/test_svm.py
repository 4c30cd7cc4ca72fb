import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import outputs_under_blas_threads
from qp_oracle import dual_value, kkt_violation, qp_max_enumerate, rbf_kernel
from smo_reference import reference_smo_solve
from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.learners.dataset import CLASSES, LabeledDataset, canonical_order
from landmark_emotion.learners import svm as svm_module
from landmark_emotion.learners.persist import save_model
from landmark_emotion.learners.svm import (
    BinaryMachine,
    Scaler,
    SVMModel,
    fit_scaler,
    grid_search,
    rbf_kernel_matrix,
    smo_solve,
    svm_decision_votes,
    svm_predict_batch,
    svm_train,
)


def dataset(X, y, ids=()):
    X = np.asarray(X, dtype=float)
    return LabeledDataset(X=X, y=np.asarray(y), ids=ids)


# --- kernel -----------------------------------------------------------------


def test_rbf_self_is_one(rng):
    for _ in range(5):
        X = rng.standard_normal((6, 7))
        K = rbf_kernel_matrix(X, X, gamma=rng.uniform(0.01, 10))
        # the expanded |a|^2 + |b|^2 - 2ab form leaves rounding dust on the diagonal
        assert np.allclose(np.diag(K), 1.0, rtol=0, atol=1e-12)


def test_rbf_hand_value():
    value = rbf_kernel_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), gamma=0.5)[0, 0]
    assert value == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert value == pytest.approx(0.36787944117144233, abs=1e-12)


def test_rbf_symmetry(rng):
    for _ in range(10):
        A, B = rng.standard_normal((5, 4)), rng.standard_normal((3, 4))
        g = rng.uniform(0.01, 5)
        assert np.array_equal(rbf_kernel_matrix(A, B, g), rbf_kernel_matrix(B, A, g).T)


def test_rbf_matrix_consistent(rng):
    A = rng.standard_normal((5, 3))
    B = rng.standard_normal((4, 3))
    K = rbf_kernel_matrix(A, B, 0.7)
    for i in range(5):
        for j in range(4):
            assert K[i, j] == pytest.approx(rbf_kernel(A[i], B[j], 0.7), abs=1e-12)


# --- scaler -----------------------------------------------------------------


def test_scaler_endpoints_and_constant(rng):
    X = rng.standard_normal((20, 4)) * 10
    X[:, 2] = 3.14  # constant dimension
    ds = dataset(X, [0] * 10 + [3] * 10)
    scaler = fit_scaler(ds)
    scaled = scaler.transform(X)
    assert np.allclose(scaled.min(axis=0), [-1, -1, 0, -1])
    assert np.allclose(scaled.max(axis=0), [1, 1, 0, 1])
    lows = scaler.transform(X.min(axis=0))
    assert np.allclose(lows, [-1, -1, 0, -1])


def test_fit_scaler_rejects_zero_rows():
    with pytest.raises(LandmarkEmotionError, match="at least two classes"):
        fit_scaler(LabeledDataset(np.zeros((0, 3)), []))


def test_svm_train_rejects_scaler_of_another_width(rng):
    train = dataset(rng.standard_normal((6, 3)), [0, 1] * 3)
    other = dataset(rng.standard_normal((6, 5)), [0, 1] * 3)
    with pytest.raises(LandmarkEmotionError, match="scaler has 5 columns, training rows 3"):
        svm_train(train, C=1.0, gamma=1.0, scaler=fit_scaler(other))


# --- SMO --------------------------------------------------------------------


def solve_one(K, y, C):
    """Alpha and bias of one dual, solved as a stack of one."""
    alpha, bias, _ = smo_solve(K[None], y[None], [C])
    return alpha[0], bias[0]


def test_smo_separable_toy():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    K = rbf_kernel_matrix(X, X, 0.5)
    alpha, bias = solve_one(K, y, 10.0)
    decisions = K @ (alpha * y) + bias
    assert np.all(np.sign(decisions) == y)
    assert abs(alpha @ y) <= 1e-6
    assert np.all(alpha >= 0) and np.all(alpha <= 10.0)
    assert kkt_violation(K, y, alpha, bias, 10.0) <= 1e-3


def test_smo_xor_rbf():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    K = rbf_kernel_matrix(X, X, 1.0)
    alpha, bias = solve_one(K, y, 10.0)
    decisions = K @ (alpha * y) + bias
    assert np.all(np.sign(decisions) == y), "XOR must be separable with an RBF kernel"


def test_smo_matches_enumeration_oracle(rng):
    for trial in range(12):
        n = int(rng.integers(4, 7))
        X = rng.standard_normal((n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.choice([0.5, 1.0, 10.0]))
        gamma = float(rng.choice([0.3, 1.0, 2.0]))
        K = rbf_kernel_matrix(X, X, gamma)
        alpha, bias = solve_one(K, y, C)
        smo_obj = dual_value(K, y, alpha)
        oracle_obj, _ = qp_max_enumerate(K, y, C)
        assert smo_obj == pytest.approx(oracle_obj, abs=1e-4), f"trial {trial}"
        assert kkt_violation(K, y, alpha, bias, C) <= 1e-3
        assert abs(alpha @ y) <= 1e-6


def padded_problems(rng, sizes, width):
    """Random RBF duals of ``sizes`` rows, each zero-padded to ``width`` at random positions."""
    problems, K_stack, y_stack = [], np.zeros((len(sizes), width, width)), np.zeros((len(sizes), width))
    for b, n in enumerate(sizes):
        X = rng.standard_normal((n, 3))
        y = np.where(X[:, 0] + 0.8 * rng.standard_normal(n) > 0, 1.0, -1.0)  # overlapping classes
        y[:2] = (1.0, -1.0)
        K = rbf_kernel_matrix(X, X, float(rng.choice([0.2, 1.0, 3.0])))
        real = np.sort(rng.choice(width, size=n, replace=False))
        K_stack[b][np.ix_(real, real)], y_stack[b, real] = K, y
        problems.append((K, y, real))
    return problems, K_stack, y_stack


def test_stacked_smo_matches_reference_bit_for_bit(rng):
    sizes = (7, 12, 9, 12, 5, 10, 11, 8)
    Cs = [0.5, 4.0, np.inf, 64.0]
    problems, K_stack, y_stack = padded_problems(rng, sizes, width=13)
    # problem c * len(sizes) + b solves kernel b at Cs[c]
    cases = [(b, C) for C in Cs for b in range(len(sizes))]
    full = [reference_smo_solve(*problems[b][:2], C)[2] for b, C in cases]
    # a cap that cuts off some problems but not others
    cap = int(np.median(full))
    assert min(full) < cap < max(full)
    for max_iter in (cap, svm_module.DEFAULT_MAX_ITER):
        alpha, bias, iterations = smo_solve(K_stack, y_stack, Cs, max_iter=max_iter)
        assert isinstance(iterations, int)
        assert alpha.shape == (len(cases), 13) and bias.shape == (len(cases),)
        expected_iterations = []
        for q, (b, C) in enumerate(cases):
            K, y, real = problems[b]
            ref_alpha, ref_bias, ref_iterations = reference_smo_solve(K, y, C, max_iter=max_iter)
            assert alpha[q, real].tobytes() == ref_alpha.tobytes()
            assert not np.delete(alpha[q], real).any()  # padding rows keep alpha 0
            assert bias[q] == ref_bias
            one_alpha, one_bias, one_iterations = smo_solve(K_stack[b : b + 1], y_stack[b : b + 1], [C], max_iter=max_iter)
            assert one_alpha[0, real].tobytes() == ref_alpha.tobytes() and one_bias[0] == ref_bias
            assert one_iterations == ref_iterations
            expected_iterations.append(ref_iterations)
        assert iterations == max(expected_iterations)
    K, y, _ = problems[1]  # unpadded
    alpha, bias, iterations = smo_solve(K[None], y[None], [4.0])
    ref_alpha, ref_bias, ref_iterations = reference_smo_solve(K, y, 4.0)
    assert (alpha[0].tobytes(), bias[0], iterations) == (ref_alpha.tobytes(), ref_bias, ref_iterations)
    assert type(iterations) is int


@pytest.mark.parametrize(
    "K_shape, y_shape, C, message",
    [
        ((3, 5, 5), (3, 5), [[1.0, 2.0, 3.0]], r"C must be a list of values, got shape \(1, 3\)"),
        ((3, 5, 5), (3, 5), 1.0, r"C must be a list of values, got shape \(\)"),
        ((3, 5, 5), (2, 5), [1.0, 2.0], r"kernel matrix \(3, 5, 5\) does not match labels \(2, 5\)"),
        ((3, 5, 6), (3, 5), [1.0, 2.0, 3.0], r"kernel matrix \(3, 5, 6\) does not match labels \(3, 5\)"),
        ((3, 5, 5), (3, 6), [1.0, 2.0, 3.0], r"kernel matrix \(3, 5, 5\) does not match labels \(3, 6\)"),
        ((5, 5), (3, 5), [1.0, 2.0, 3.0], r"kernel matrix \(5, 5\) does not match labels \(3, 5\)"),
        ((5, 5), (5,), [1.0], r"kernel matrix \(5, 5\) does not match labels \(5,\)"),
        ((5, 5), (6,), [1.0], r"kernel matrix \(5, 5\) does not match labels \(6,\)"),
    ],
    ids=[
        "C-2d",
        "C-scalar",
        "fewer-labels",
        "K-not-square",
        "labels-too-long",
        "K-2d-y-stack",
        "one-dual",
        "K-2d-too-small",
    ],
)
def test_smo_shape_mismatch(K_shape, y_shape, C, message):
    with pytest.raises(LandmarkEmotionError, match=message):
        smo_solve(np.zeros(K_shape), np.ones(y_shape), C)


# --- one-vs-one training ----------------------------------------------------


def separable_three_class(rng, n_per=8):
    centers = {0: (0.0, 0.0), 3: (6.0, 0.0), 5: (0.0, 6.0)}
    X, y = [], []
    for cls, center in centers.items():
        X.append(rng.normal(0, 0.3, size=(n_per, 2)) + center)
        y.extend([cls] * n_per)
    return dataset(np.vstack(X), y)


def test_svm_train_predicts_training_set(rng):
    train = separable_three_class(rng)
    model = svm_train(train, C=10.0, gamma=1.0, scaler=fit_scaler(train))
    assert len(model.machines) == 3  # C(3, 2) class pairs
    assert np.array_equal(svm_predict_batch(model, train.X), train.y)
    votes = svm_decision_votes(model, train.X)
    assert np.all(votes.sum(axis=1) == len(model.machines))  # one vote per machine


def test_svm_model_invariants(rng):
    train = separable_three_class(rng)
    C = 5.0
    model = svm_train(train, C=C, gamma=0.5, scaler=fit_scaler(train))
    for machine in model.machines:
        # coef = alpha * y, so 0 <= |coef| <= C and the machine's coefs sum to ~0
        assert np.all(np.abs(machine.coef) <= C + 1e-9)
        assert abs(machine.coef.sum()) <= 1e-6
        assert len(machine.coef) == len(machine.sv_indices)


def test_svm_single_class_rejected(rng):
    ds = dataset(rng.standard_normal((6, 2)), [4] * 6)
    with pytest.raises(LandmarkEmotionError, match="at least two classes"):
        svm_train(ds, C=1.0, gamma=1.0, scaler=fit_scaler(ds))


def test_zero_columns_rejected():
    ds = dataset(np.zeros((6, 0)), [0, 1] * 3)
    with pytest.raises(LandmarkEmotionError, match="training rows have no feature columns"):
        svm_train(ds, C=1.0, gamma=1.0, scaler=fit_scaler(ds))
    with pytest.raises(LandmarkEmotionError, match="training rows have no feature columns"):
        grid_search(ds, ds, [1.0], [0.5])


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_svm_gamma_must_be_positive_and_finite(rng, gamma):
    ds = dataset(rng.standard_normal((6, 2)), [0, 1] * 3)
    with pytest.raises(LandmarkEmotionError, match="gamma"):
        svm_train(ds, C=1.0, gamma=gamma, scaler=fit_scaler(ds))


def test_svm_sample_order_invariance(rng):
    train = separable_three_class(rng)
    perm = rng.permutation(len(train))
    shuffled = LabeledDataset(X=train.X[perm], y=train.y[perm])
    a = svm_train(train, C=2.0, gamma=1.5, scaler=fit_scaler(train))
    b = svm_train(shuffled, C=2.0, gamma=1.5, scaler=fit_scaler(shuffled))
    assert save_model(a) == save_model(b)


def cross_class_duplicates(rng):
    """Exact duplicate feature rows under different labels.

    Only the label tie-break in the canonical order fixes the relative order
    of the duplicates.  Small integer features also tie many rows in their
    leading columns.
    """
    base = rng.integers(-3, 4, size=(6, 3)).astype(float)
    X = np.vstack([base, base, base[:4], rng.integers(-3, 4, size=(6, 3)).astype(float)])
    y = np.array([0] * 6 + [3] * 6 + [5] * 4 + [6] * 6)
    return X, y


def test_svm_machines_shuffle_invariant_with_cross_class_duplicates(rng):
    X, y = cross_class_duplicates(rng)
    scaler = fit_scaler(dataset(X, y))
    for C, gamma in ((0.5, 0.3), (4.0, 1.0), (64.0, 2.0)):
        reference = save_model(svm_train(dataset(X, y), C, gamma, scaler))
        for _ in range(5):
            perm = rng.permutation(len(y))
            assert save_model(svm_train(dataset(X[perm], y[perm]), C, gamma, scaler)) == reference

    # float features round differently in each row position unless the
    # kernel and the vector table are built in canonical order
    X = rng.standard_normal((22, 3))
    y = np.array([0] * 6 + [3] * 6 + [5] * 4 + [6] * 6)
    X[6] = X[0]  # the same row as an Angry and a Happy sample
    ds = dataset(X, y)
    reference = save_model(svm_train(ds, C=4.0, gamma=1.0, scaler=fit_scaler(ds)))
    for seed in range(8):
        perm = np.random.default_rng(seed).permutation(len(y))
        shuffled = dataset(X[perm], y[perm])
        assert save_model(svm_train(shuffled, C=4.0, gamma=1.0, scaler=fit_scaler(shuffled))) == reference


def test_canonical_order_matches_lexsort(rng):
    def lexsort_order(X, y):
        return np.lexsort(np.vstack([y[None, :].astype(np.float64), X.T[::-1]]))

    cases = []
    for _ in range(200):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        # few distinct values: ties at every column, and -0.0 next to 0.0
        X = rng.choice([-1.0, -0.0, 0.0, 0.25, 1.0], size=(n, d))
        X[rng.integers(0, n, size=n // 3)] = X[0]  # duplicate rows
        cases.append((X, rng.integers(0, 3, size=n)))
    wide = rng.normal(size=(8, 20832))
    wide[4:, :20000] = wide[:4, :20000]  # rows that first differ near the end
    wide[7] = wide[3]
    cases.append((wide, np.array([1, 0, 2, 0, 1, 0, 2, 0])))
    for X, y in cases:
        assert np.array_equal(canonical_order(X, y), lexsort_order(X, y))


def test_svm_pair_rows_follow_their_own_canonical_order(rng):
    # one order for the whole training set must give each pair exactly the
    # order its own rows sort into, with the pair's -1 label first on ties
    X, y = cross_class_duplicates(rng)
    C, gamma = 4.0, 1.0
    scaler = fit_scaler(dataset(X, y))
    model = svm_train(dataset(X, y), C, gamma, scaler)
    X = scaler.transform(X)  # the rows training sees
    for (pos, neg), m in zip(combinations(model.classes, 2), model.machines, strict=True):
        rows = np.flatnonzero((y == pos) | (y == neg))
        labels = np.where(y[rows] == pos, 1.0, -1.0)
        order = canonical_order(X[rows], labels)
        rows, labels = rows[order], labels[order]
        alpha, bias = solve_one(rbf_kernel_matrix(X[rows], X[rows], gamma), labels, C)
        sv = np.flatnonzero(alpha > 1e-12)
        assert model.vectors[m.sv_indices].tobytes() == X[rows[sv]].tobytes()
        assert m.coef.tobytes() == (alpha * labels)[sv].tobytes()
        assert m.bias == bias


def test_vote_tie_breaks_to_earliest_class():
    # three constant-decision machines, for pairs (0, 3), (0, 4) and (3, 4),
    # produce a three-way 1-1-1 vote tie between Angry, Happy and Neutral;
    # the fixed order picks Angry
    dim = 2
    machines = (
        BinaryMachine(np.array([], dtype=np.int64), np.array([]), bias=-1.0),  # Happy
        BinaryMachine(np.array([], dtype=np.int64), np.array([]), bias=+1.0),  # Angry
        BinaryMachine(np.array([], dtype=np.int64), np.array([]), bias=-1.0),  # Neutral
    )
    model = SVMModel(
        classes=(0, 3, 4),
        vectors=np.empty((0, dim)),
        machines=machines,
        gamma=1.0,
        C=1.0,
        scaler=Scaler(lo=np.zeros(dim), hi=np.ones(dim)),
    )
    votes = svm_decision_votes(model, np.zeros((1, dim)))[0]
    assert votes[0] == votes[3] == votes[4] == 1
    assert CLASSES[svm_predict_batch(model, np.zeros((1, dim)))[0]] == "Angry"


# --- grid search ------------------------------------------------------------


def test_grid_search_single_cell(rng):
    train = separable_three_class(rng)
    result = grid_search(train, train, C_grid=[2.0], gamma_grid=[0.25])
    assert (result.C, result.gamma) == (2.0, 0.25)
    assert result.accuracy.shape == (1, 1)


def test_grid_search_separable_hits_100(rng):
    train = separable_three_class(rng)
    result = grid_search(train, train, C_grid=[0.1, 10.0], gamma_grid=[0.01, 1.0])
    assert result.best_accuracy == 1.0
    assert result.accuracy.max() == 1.0
    assert "best" in result.curve_text()


def test_grid_search_tie_break_smaller_c_then_gamma(rng):
    train = separable_three_class(rng)
    C_grid, gamma_grid = [10.0, 1.0], [1.0, 0.1]
    result = grid_search(train, train, C_grid=C_grid, gamma_grid=gamma_grid)
    best = result.accuracy.max()
    tied = [
        (C, gamma)
        for ci, C in enumerate(C_grid)
        for gi, gamma in enumerate(gamma_grid)
        if result.accuracy[ci, gi] == best
    ]
    assert len(tied) > 1
    assert (result.C, result.gamma) == min(tied)


def test_grid_search_exhaustive_oracle(rng):
    # 7-class gaussian blobs; selected cell must match an exhaustive re-run
    centers = np.array([(0, 0), (4, 0), (0, 4), (4, 4), (8, 0), (0, 8), (8, 8)], dtype=float)
    Xs, ys = [], []
    for cls in range(7):
        Xs.append(rng.normal(0, 0.9, size=(12, 2)) + centers[cls])
        ys.extend([cls] * 12)
    X = np.vstack(Xs)
    y = np.array(ys)
    order = rng.permutation(len(y))
    train = dataset(X[order][:56], y[order][:56])
    val = dataset(X[order][56:], y[order][56:])
    C_grid = [0.5, 8.0]
    gamma_grid = [0.05, 0.8]
    result = grid_search(train, val, C_grid, gamma_grid)

    # independent re-run of every cell through the public training API
    expected = np.zeros((len(C_grid), len(gamma_grid)))
    for ci, C in enumerate(C_grid):
        for gi, gamma in enumerate(gamma_grid):
            model = svm_train(train, C, gamma, scaler=fit_scaler(train))
            expected[ci, gi] = float(np.mean(svm_predict_batch(model, val.X) == val.y))
    assert np.array_equal(result.accuracy, expected)
    assert result.best_accuracy == expected.max()


def test_grid_search_empty_validation(rng):
    train = separable_three_class(rng)
    empty = LabeledDataset(X=np.empty((0, 2)), y=np.empty(0, dtype=int))
    with pytest.raises(LandmarkEmotionError, match="non-empty validation set"):
        grid_search(train, empty)



def never_solve(*args, **kwargs):
    raise AssertionError("smo_solve ran before the grid was checked")


@pytest.mark.parametrize(
    "C_grid, gamma_grid, message",
    [
        ((1.0, 0.0), (0.5,), r"C must be positive, got 0\.0"),
        ((1.0, -1.0), (0.5,), r"C must be positive, got -1\.0"),
        ((1.0, math.nan), (0.5,), "C must be positive, got nan"),
        ((1.0,), (0.5, 0.0), r"gamma must be positive and finite, got 0\.0"),
        ((1.0,), (0.5, math.nan), "gamma must be positive and finite, got nan"),
        ((1.0,), (0.5, math.inf), "gamma must be positive and finite, got inf"),
        ((), (0.5,), "C and gamma each need at least one value"),
        ((1.0,), (), "C and gamma each need at least one value"),
    ],
    ids=["C=0", "C=-1", "C=nan", "gamma=0", "gamma=nan", "gamma=inf", "no-C", "no-gamma"],
)
def test_grid_search_checks_every_value_before_solving(rng, monkeypatch, C_grid, gamma_grid, message):
    # a bad value sits last, after a cell that could be trained, or a grid is empty
    monkeypatch.setattr(svm_module, "smo_solve", never_solve)
    train = separable_three_class(rng)
    with pytest.raises(LandmarkEmotionError, match=message):
        grid_search(train, train, C_grid, gamma_grid)


def test_grid_search_rejects_validation_width_mismatch(rng, monkeypatch):
    monkeypatch.setattr(svm_module, "smo_solve", never_solve)
    train = separable_three_class(rng)
    val = dataset(rng.standard_normal((4, 3)), [0, 1, 2, 0])
    with pytest.raises(LandmarkEmotionError, match="columns"):
        grid_search(train, val, [1.0], [0.5])


def test_grid_search_holds_one_copy_of_each_pair_kernel():
    """More C values at one gamma add per-problem state, never another copy of the pair kernels."""
    rng = np.random.default_rng(7)
    centers = rng.normal(0, 1.5, size=(4, 5))

    def blobs(per_class):
        X = np.vstack([rng.normal(0, 1.0, size=(per_class, 5)) + c for c in centers])
        return dataset(X, np.repeat([0, 2, 3, 6], per_class))

    # 60 rows per class: the pair stack grows with n^2, per-problem state with n
    train, val = blobs(60), blobs(10)
    stack_bytes = 6 * 120**2 * 8  # 6 class pairs of 120 rows, float64

    def peak_growth(C_grid):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid_search(train, val, C_grid, [0.2])
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    C_grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    assert peak_growth(C_grid) - peak_growth(C_grid[:1]) < stack_bytes


# --- determinism pins -------------------------------------------------------
#
# The grid table was recorded with the code as it was before grid search
# shared one data step across its cells and one kernel across each gamma's
# cells.  The model digest and the SMO iteration count were recorded again
# when squared distances became per-pair sums (``cdist``), which moved the
# kernel's last bits.  Since grid search solves every class pair and C of
# one gamma as one lock-step stack, it makes one ``smo_solve`` call per
# gamma, and each call reports its lock-step rounds; the iteration count is
# still the one-problem reference solver's total over the same 54 problems.
# Any change here means the SMO iterates, the scaling, the row order or the
# model text moved.

PINNED_MODEL_SHA256 = "d23823d635af892da14136596b5c77bf171853be485435bbbcfa1bbe4b8d0768"
PINNED_GRID = ((0.25, 4.0, 64.0), (0.01, 0.2, 4.0))
PINNED_GRID_ACCURACY = [[0.475, 0.475, 0.3], [0.475, 0.525, 0.425], [0.525, 0.575, 0.425]]
PINNED_GRID_SMO_ITERATIONS = 1629  # per problem, summed over the 54 (C, gamma, pair) problems
PINNED_GRID_SMO_PROBLEMS = 54
PINNED_GRID_SMO_ROUNDS = 250  # lock-step rounds, summed over the calls
PINNED_GRID_SMO_CALLS = 3  # one per gamma


def overlapping_four_class(seed):
    """Four overlapping 5-D blobs of 10 rows each, in classes 0, 2, 3, 6."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1.5, size=(4, 5))
    X = np.vstack([rng.normal(0, 1.0, size=(10, 5)) + c for c in centers])
    return dataset(X, np.repeat([0, 2, 3, 6], 10))


def test_svm_model_bytes_pinned():
    train = overlapping_four_class(20240)
    model = svm_train(train, 2.0, 0.1, scaler=fit_scaler(train))
    assert hashlib.sha256(save_model(model).encode("utf-8")).hexdigest() == PINNED_MODEL_SHA256


def test_grid_search_table_and_smo_iterations_pinned(monkeypatch):
    calls = []
    solve = svm_module.smo_solve

    def counting_solve(K, y, C, *args, **kwargs):
        result = solve(K, y, C, *args, **kwargs)
        calls.append((K, y, C, result[2]))
        return result

    monkeypatch.setattr(svm_module, "smo_solve", counting_solve)
    result = grid_search(overlapping_four_class(20240), overlapping_four_class(20241), *PINNED_GRID)
    assert result.accuracy.tolist() == PINNED_GRID_ACCURACY
    assert (result.C, result.gamma) == (64.0, 0.2)
    assert (sum(rounds for *_, rounds in calls), len(calls)) == (PINNED_GRID_SMO_ROUNDS, PINNED_GRID_SMO_CALLS)
    # each call solves every pair kernel at every C, C-major
    per_problem = [
        reference_smo_solve(K_b[np.ix_(y_b != 0, y_b != 0)], y_b[y_b != 0], C)[2]
        for K, y, Cs, _ in calls
        for C in Cs
        for K_b, y_b in zip(K, y)
    ]
    assert (sum(per_problem), len(per_problem)) == (PINNED_GRID_SMO_ITERATIONS, PINNED_GRID_SMO_PROBLEMS)


_BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from landmark_emotion.learners.dataset import LabeledDataset
from landmark_emotion.learners.persist import save_model
from landmark_emotion.learners.svm import fit_scaler, svm_train
rng = np.random.default_rng(0)
y = np.arange(126) % 3
train = LabeledDataset(X=rng.normal(size=(126, 2278)) + 0.05 * y[:, None], y=y)
model = svm_train(train, 8.0, 2.0**-7, scaler=fit_scaler(train))
print(hashlib.sha256(save_model(model).encode()).hexdigest())
"""


def test_model_bytes_do_not_depend_on_blas_threads():
    """126 rows of 2278 features, the bench's shape, are enough for BLAS to split a product across threads."""
    digests = outputs_under_blas_threads(_BLAS_THREADS_SCRIPT)
    assert digests[0] == digests[1]
