"""Versioned structured-text persistence for trained models.

The format is line-oriented UTF-8.  Floats are written with ``repr`` so a
round trip is bit-exact and output is byte-identical for equal models.  A
model file records the digest of the FeatureSpec it was trained on; loading
against a different spec digest is an error.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from ..errors import FormatError
from .dataset import CLASSES
from .gb import GBModel, Split, Tree
from .svm import BinaryMachine, Scaler, SVMModel

FORMAT_HEADER = "landmark-emotion-model v1"


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def _parse_float(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise FormatError(f"{what} must be finite, got {text!r}")
    return value


def _parse_floats(text: str, what: str) -> np.ndarray:
    values = np.array([float(t) for t in text.split()], dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{what} must be finite")
    return values


def _parse_ints(text: str) -> np.ndarray:
    if not text.strip():
        return np.array([], dtype=np.int64)
    return np.array([int(t) for t in text.split()], dtype=np.int64)


# Every node layout a tree can have, in pre-order: a leaf is None, a split
# holds its (left, right) child node numbers.  Splits come root first and
# leaves left to right, as in Tree.splits and Tree.values.
_TREE_LAYOUTS = {
    "leaf": (None,),
    "stump": ((1, 2), None, None),
    "inner_left": ((1, 4), (2, 3), None, None, None),
    "inner_right": ((1, 2), None, (3, 4), None, None),
}
_LAYOUT_KEYS = {layout: key for key, layout in _TREE_LAYOUTS.items()}


def _layout_key(tree: Tree) -> str:
    if tree.root is None:
        return "leaf"
    if tree.inner is None:
        return "stump"
    return "inner_right" if tree.inner_right else "inner_left"


def save_model(model: GBModel | SVMModel) -> str:
    if isinstance(model, GBModel):
        return _save_gb(model)
    if isinstance(model, SVMModel):
        return _save_svm(model)
    raise FormatError(f"cannot persist object of type {type(model).__name__}")


def _save_gb(model: GBModel) -> str:
    lines = [
        FORMAT_HEADER,
        "kind: gb",
        f"spec_digest: {model.spec_digest}",
        "class_order: " + ",".join(CLASSES),
        "classes: " + ",".join(str(c) for c in model.classes),
        f"dimension: {model.dimension}",
        f"shrinkage: {model.shrinkage!r}",
        f"tree_count: {model.tree_count}",
        "init_scores: " + _fmt_floats(model.init_scores),
    ]
    for k in range(len(model.classes)):
        for t, tree in enumerate(model.trees[k][: model.tree_count]):
            layout = _TREE_LAYOUTS[_layout_key(tree)]
            lines.append(f"tree class={model.classes[k]} iter={t} nodes={len(layout)}")
            splits, values = iter(tree.splits), iter(tree.values)
            for i, children in enumerate(layout):
                if children is None:
                    lines.append(f"node {i} leaf value={next(values)!r}")
                else:
                    s = next(splits)
                    lines.append(
                        f"node {i} split feature={s.feature} threshold={s.threshold!r} gain={s.gain!r} "
                        f"left={children[0]} right={children[1]}"
                    )
    return "\n".join(lines) + "\n"


def _save_svm(model: SVMModel) -> str:
    lines = [
        FORMAT_HEADER,
        "kind: svm",
        f"spec_digest: {model.spec_digest}",
        "class_order: " + ",".join(CLASSES),
        "classes: " + ",".join(str(c) for c in model.classes),
        f"dimension: {model.dimension}",
        f"C: {model.C!r}",
        f"gamma: {model.gamma!r}",
    ]
    if model.scaler is not None:
        lines.append("scaler_lo: " + _fmt_floats(model.scaler.lo))
        lines.append("scaler_hi: " + _fmt_floats(model.scaler.hi))
    lines.append(f"vectors: {model.vectors.shape[0]} {model.dimension}")
    for row in model.vectors:
        lines.append(_fmt_floats(row))
    for m in model.machines:
        lines.append(f"machine pos={m.pos_class} neg={m.neg_class} bias={m.bias!r} nsv={len(m.coef)}")
        lines.append("sv_indices: " + " ".join(str(int(i)) for i in m.sv_indices))
        lines.append("coef: " + _fmt_floats(m.coef))
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError("unexpected end of model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def remaining(self) -> int:
        return len(self.lines) - self.pos

    def expect_key(self, key: str) -> str:
        line = self.next()
        prefix = key + ":"
        if not line.startswith(prefix):
            raise FormatError(f"expected {key!r} line, got {line!r}")
        return line[len(prefix) :].strip()


def load_model(text: str, expected_spec_digest: str | None = None) -> GBModel | SVMModel:
    """Parse a model file; verify the FeatureSpec digest when one is expected.

    Every malformed file ends in a FormatError.
    """
    try:
        return _parse_model(text, expected_spec_digest)
    except FormatError:
        raise
    except (KeyError, IndexError, ValueError) as exc:
        raise FormatError(f"malformed model file ({type(exc).__name__}: {exc})") from exc


def _parse_model(text: str, expected_spec_digest: str | None) -> GBModel | SVMModel:
    reader = _LineReader(text)
    if reader.next() != FORMAT_HEADER:
        raise FormatError(f"not a model file (missing {FORMAT_HEADER!r} header)")
    kind = reader.expect_key("kind")
    digest = reader.expect_key("spec_digest")
    if expected_spec_digest is not None and digest != expected_spec_digest:
        raise FormatError(
            f"FeatureSpec digest mismatch: model was trained on {digest or '<empty>'} "
            f"but the current configuration produces {expected_spec_digest}"
        )
    order = reader.expect_key("class_order").split(",")
    if tuple(order) != CLASSES:
        raise FormatError(f"model class order {order} differs from {list(CLASSES)}")
    classes = tuple(int(c) for c in reader.expect_key("classes").split(","))
    if len(set(classes)) != len(classes) or not all(0 <= c < len(CLASSES) for c in classes):
        raise FormatError(f"classes {list(classes)} must be distinct indices into the class order")
    dimension = int(reader.expect_key("dimension"))
    if kind == "gb":
        return _load_gb(reader, digest, classes, dimension)
    if kind == "svm":
        return _load_svm(reader, digest, classes, dimension)
    raise FormatError(f"unknown model kind {kind!r}")


def _load_gb(reader: _LineReader, digest: str, classes: tuple[int, ...], dimension: int) -> GBModel:
    shrinkage = float(reader.expect_key("shrinkage"))
    if not 0 < shrinkage <= 1:
        raise FormatError(f"shrinkage must be in (0, 1], got {shrinkage!r}")
    tree_count = int(reader.expect_key("tree_count"))
    init_scores = _parse_floats(reader.expect_key("init_scores"), "init_scores")
    if init_scores.shape != (len(classes),):
        raise FormatError("init_scores length does not match class count")

    trees: dict[int, list[Tree]] = {c: [] for c in classes}
    while reader.peek() is not None:
        header = reader.next()
        parts = header.split()
        if len(parts) != 4 or parts[0] != "tree":
            raise FormatError(f"expected a tree header, got {header!r}")
        fields = dict(p.split("=", 1) for p in parts[1:])
        cls = int(fields["class"])
        n_nodes = int(fields["nodes"])
        if not 0 < n_nodes <= reader.remaining():
            raise FormatError(f"tree node count {n_nodes} does not fit the file")
        layout, splits, values = [], [], []
        for i in range(n_nodes):
            node_line = reader.next().split()
            if int(node_line[1]) != i:
                raise FormatError(f"expected node {i}, got {' '.join(node_line)!r}")
            node_fields = dict(p.split("=", 1) for p in node_line[3:])
            if node_line[2] == "leaf":
                layout.append(None)
                values.append(_parse_float(node_fields["value"], f"node {i} value"))
            elif node_line[2] == "split":
                layout.append((int(node_fields["left"]), int(node_fields["right"])))
                feature = int(node_fields["feature"])
                if not 0 <= feature < dimension:
                    raise FormatError(f"node {i} has feature index {feature} out of range")
                threshold = _parse_float(node_fields["threshold"], f"node {i} threshold")
                gain = _parse_float(node_fields["gain"], f"node {i} gain")
                splits.append(Split(feature=feature, threshold=threshold, gain=gain))
            else:
                raise FormatError(f"unknown node type in {node_line!r}")
        key = _LAYOUT_KEYS.get(tuple(layout))
        if key is None:
            raise FormatError(f"tree {header!r} is not a leaf or a root split with at most one inner split")
        trees[cls].append(
            Tree(
                values=tuple(values),
                root=splits[0] if splits else None,
                inner=splits[1] if len(splits) > 1 else None,
                inner_right=key == "inner_right",
            )
        )
    counts = {len(ts) for ts in trees.values()}
    if counts != {tree_count}:
        raise FormatError(f"expected {tree_count} trees per class, found counts {sorted(counts)}")
    return GBModel(
        classes=classes,
        init_scores=init_scores,
        shrinkage=shrinkage,
        tree_count=tree_count,
        trees=tuple(tuple(trees[c]) for c in classes),
        dimension=dimension,
        spec_digest=digest,
    )


def _load_svm(reader: _LineReader, digest: str, classes: tuple[int, ...], dimension: int) -> SVMModel:
    C = float(reader.expect_key("C"))
    gamma = float(reader.expect_key("gamma"))
    # C = inf is a hard margin, as svm_train allows
    if not C > 0:
        raise FormatError(f"C must be positive, got {C!r}")
    if not 0 < gamma < math.inf:
        raise FormatError(f"gamma must be positive and finite, got {gamma!r}")
    scaler = None
    if reader.peek() is not None and reader.peek().startswith("scaler_lo:"):
        lo = _parse_floats(reader.expect_key("scaler_lo"), "scaler_lo")
        hi = _parse_floats(reader.expect_key("scaler_hi"), "scaler_hi")
        if lo.shape != (dimension,) or hi.shape != (dimension,):
            raise FormatError("scaler vectors do not match model dimension")
        scaler = Scaler(lo=lo, hi=hi)
    n_vec_line = reader.expect_key("vectors").split()
    n_vec, n_dim = int(n_vec_line[0]), int(n_vec_line[1])
    if n_dim != dimension:
        raise FormatError("support vector width does not match model dimension")
    if not 0 <= n_vec <= reader.remaining():
        raise FormatError(f"support vector count {n_vec} does not fit the file")
    # rows are checked before they are stored, so nothing is sized by the unchecked dimension
    rows = []
    for i in range(n_vec):
        row = _parse_floats(reader.next(), f"support vector {i}")
        if row.shape != (dimension,):
            raise FormatError(f"support vector {i} has {row.shape[0]} values, expected {dimension}")
        rows.append(row)
    vectors = np.array(rows).reshape(n_vec, dimension)
    machines = []
    while reader.peek() is not None:
        header = reader.next().split()
        if header[0] != "machine":
            raise FormatError(f"expected a machine header, got {' '.join(header)!r}")
        fields = dict(p.split("=", 1) for p in header[1:])
        sv_indices = _parse_ints(reader.expect_key("sv_indices"))
        coef = _parse_floats(reader.expect_key("coef"), "coef")
        if len(sv_indices) != int(fields["nsv"]) or len(coef) != int(fields["nsv"]):
            raise FormatError("machine support-vector counts disagree")
        if np.any((sv_indices < 0) | (sv_indices >= n_vec)):
            raise FormatError("machine sv index outside the vector table")
        machines.append(
            BinaryMachine(
                pos_class=int(fields["pos"]),
                neg_class=int(fields["neg"]),
                sv_indices=sv_indices,
                coef=coef,
                bias=_parse_float(fields["bias"], "bias"),
            )
        )
    if [(m.pos_class, m.neg_class) for m in machines] != list(combinations(classes, 2)):
        raise FormatError("expected one machine per pair of model classes, in class order")
    return SVMModel(
        classes=classes,
        vectors=vectors,
        machines=tuple(machines),
        gamma=gamma,
        C=C,
        scaler=scaler,
        spec_digest=digest,
    )
