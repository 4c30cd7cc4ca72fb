"""Versioned structured-text persistence for trained models.

The format is line-oriented UTF-8.  Floats are written with ``repr`` so a
round trip is bit-exact and output is byte-identical for equal models.  A
model file records the digest of the FeatureSpec it was trained on; loading
against a different spec digest is an error.

Each fact is stored once.  A boosted tree is one line holding its leaf values
and its splits by position (``root``, ``inner_left`` or ``inner_right``); SVM
machines follow ``combinations(classes, 2)``, so none stores its class pair.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from ..errors import FormatError
from .dataset import CLASSES
from .gb import GBModel, Split, Tree
from .svm import BinaryMachine, Scaler, SVMModel

_FORMAT_NAME = "landmark-emotion-model"
FORMAT_HEADER = _FORMAT_NAME + " v2"


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


def save_model(model: GBModel | SVMModel) -> str:
    if isinstance(model, GBModel):
        kind, body = "gb", _gb_lines(model)
    elif isinstance(model, SVMModel):
        kind, body = "svm", _svm_lines(model)
    else:
        raise FormatError(f"cannot persist object of type {type(model).__name__}")
    lines = [
        FORMAT_HEADER,
        f"kind: {kind}",
        f"spec_digest: {model.spec_digest}",
        "class_order: " + ",".join(CLASSES),
        "classes: " + ",".join(str(c) for c in model.classes),
        f"dimension: {model.dimension}",
        *body,
    ]
    return "\n".join(lines) + "\n"


def _fmt_split(split: Split) -> str:
    return f"{split.feature},{split.threshold!r},{split.gain!r}"


def _gb_lines(model: GBModel) -> list[str]:
    lines = [
        f"shrinkage: {model.shrinkage!r}",
        f"tree_count: {model.tree_count}",
        "init_scores: " + _fmt_floats(model.init_scores),
    ]
    for cls, trees in zip(model.classes, model.trees):
        for tree in trees[: model.tree_count]:
            fields = [f"class={cls}", "values=" + ",".join(repr(v) for v in tree.values)]
            if tree.root is not None:
                fields.append("root=" + _fmt_split(tree.root))
            if tree.inner is not None:
                side = "inner_right" if tree.inner_right else "inner_left"
                fields.append(f"{side}=" + _fmt_split(tree.inner))
            lines.append("tree " + " ".join(fields))
    return lines


def _svm_lines(model: SVMModel) -> list[str]:
    lines = [f"C: {model.C!r}", f"gamma: {model.gamma!r}"]
    if model.scaler is not None:
        lines.append("scaler_lo: " + _fmt_floats(model.scaler.lo))
        lines.append("scaler_hi: " + _fmt_floats(model.scaler.hi))
    lines.append(f"vectors: {model.vectors.shape[0]}")
    lines.extend(_fmt_floats(row) for row in model.vectors)
    # the loader gives each machine its class pair from this order
    if [(m.pos_class, m.neg_class) for m in model.machines] != list(combinations(model.classes, 2)):
        raise FormatError("expected one machine per pair of model classes, in class order")
    for m in model.machines:
        lines.append(f"machine bias={m.bias!r}")
        lines.append("sv_indices: " + " ".join(str(int(i)) for i in m.sv_indices))
        lines.append("coef: " + _fmt_floats(m.coef))
    return lines


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
    header = reader.next()
    if header != FORMAT_HEADER:
        if header.startswith(_FORMAT_NAME + " "):
            raise FormatError(f"model file format {header.split()[-1]} is no longer read; retrain the model")
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


_TREE_FIELDS = {"class", "values", "root", "inner_left", "inner_right"}


def _parse_split(text: str, dimension: int) -> Split:
    feature, threshold, gain = text.split(",")
    split = Split(int(feature), _parse_float(threshold, "split threshold"), _parse_float(gain, "split gain"))
    if not 0 <= split.feature < dimension:
        raise FormatError(f"split feature index {split.feature} out of range")
    return split


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
        line = reader.next()
        tag, *parts = line.split()
        if tag != "tree":
            raise FormatError(f"expected a tree line, got {line!r}")
        fields = dict(p.split("=", 1) for p in parts)
        if len(fields) != len(parts) or not fields.keys() <= _TREE_FIELDS:
            raise FormatError(f"tree line {line!r} has a repeated or unknown field")
        inner_keys = fields.keys() & {"inner_left", "inner_right"}
        if len(inner_keys) > 1 or (inner_keys and "root" not in fields):
            raise FormatError(f"tree line {line!r} needs a root and at most one inner split")
        root = _parse_split(fields["root"], dimension) if "root" in fields else None
        inner = _parse_split(fields[inner_keys.pop()], dimension) if inner_keys else None
        values = tuple(_parse_float(v, "leaf value") for v in fields["values"].split(","))
        if len(values) != 1 + (root is not None) + (inner is not None):
            raise FormatError(f"tree line {line!r} has {len(values)} leaf values for its splits")
        trees[int(fields["class"])].append(Tree(values, root, inner, inner_right="inner_right" in fields))
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
    n_vec = int(reader.expect_key("vectors"))
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
    for pos, neg in combinations(classes, 2):
        line = reader.next()
        if not line.startswith("machine bias="):
            raise FormatError(f"expected the machine for classes {pos} and {neg}, got {line!r}")
        bias = _parse_float(line[len("machine bias=") :], "bias")
        sv_indices = _parse_ints(reader.expect_key("sv_indices"))
        coef = _parse_floats(reader.expect_key("coef"), "coef")
        if len(sv_indices) != len(coef):
            raise FormatError("machine sv_indices and coef lengths differ")
        if np.any((sv_indices < 0) | (sv_indices >= n_vec)):
            raise FormatError("machine sv index outside the vector table")
        machines.append(BinaryMachine(pos, neg, sv_indices, coef, bias))
    if reader.peek() is not None:
        raise FormatError(f"unexpected line after the last machine: {reader.peek()!r}")
    return SVMModel(
        classes=classes,
        vectors=vectors,
        machines=tuple(machines),
        gamma=gamma,
        C=C,
        scaler=scaler,
        spec_digest=digest,
    )
