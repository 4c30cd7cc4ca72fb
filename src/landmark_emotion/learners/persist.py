"""Versioned structured-text persistence for trained models.

The format is UTF-8 text in newline-ended lines.  Every float table is one
block line, ``b64 <rows> <cols> <data>``, where ``<data>`` is the base64 of
the table's little-endian float64 bytes, so a round trip is bit-exact and
output is byte-identical for equal models.  A model file records the digest
of the FeatureSpec it was trained on; loading against a different spec
digest is an error.  When the model was trained on ``axis`` features, the
header also holds the training mean shape those features are measured from.
A model has at least two classes and one dimension, its learner parameters
pass the checks training applies, and an SVM file always holds the bounds of
its scaler; any other file is a LandmarkEmotionError.

Each fact is stored once.  A boosted tree is one line holding its leaf values
and its splits by position (``root``, ``inner_left`` or ``inner_right``);
trees run ``tree_count`` per class in ``classes`` order, and SVM machines
follow ``combinations(classes, 2)``, so neither stores its classes.
"""
from __future__ import annotations

import base64
import binascii
import math
from itertools import combinations

import numpy as np

from ..errors import LandmarkEmotionError
from ..shapes import POINT_COUNT
from .dataset import CLASSES
from .gb import GBModel, Split, Tree, check_gb_parameters
from .svm import BinaryMachine, Scaler, SVMModel, check_svm_parameters

_FORMAT_NAME = "landmark-emotion-model"
FORMAT_HEADER = _FORMAT_NAME + " v3"
_FLOAT = np.dtype("<f8")


def _fmt_block(values) -> str:
    """One float table as ``b64 <rows> <cols> <data>``; a vector is one row."""
    table = np.asarray(values, dtype=_FLOAT)
    rows, cols = table.shape if table.ndim == 2 else (1, table.size)
    return f"b64 {rows} {cols} " + base64.b64encode(table.tobytes()).decode("ascii")


def _parse_block(text: str, what: str, rows: int | None, cols: int) -> np.ndarray:
    """The (rows, cols) table of a block line; ``rows=None`` accepts any row count."""
    # the data field is not split again: it is most of the file, and an empty table has none
    tag, stored_rows, stored_cols, *data = text.split(" ", 3)
    if tag != "b64":
        raise LandmarkEmotionError(f"{what} is not a 'b64 <rows> <cols> <data>' block")
    shape = int(stored_rows), int(stored_cols)
    if min(shape) < 0 or shape[1] != cols or rows not in (None, shape[0]):
        raise LandmarkEmotionError(f"{what} has shape {shape}, expected ({'any' if rows is None else rows}, {cols})")
    try:
        raw = base64.b64decode("".join(data), validate=True)
    except binascii.Error as exc:
        raise LandmarkEmotionError(f"{what} is not valid base64 ({exc})") from exc
    if len(raw) != _FLOAT.itemsize * shape[0] * shape[1]:
        raise LandmarkEmotionError(f"{what} holds {len(raw)} bytes, not {shape[0]} x {shape[1]} float64 values")
    table = np.frombuffer(raw, dtype=_FLOAT).reshape(shape)
    if not np.all(np.isfinite(table)):
        raise LandmarkEmotionError(f"{what} must be finite")
    return table


def _parse_float(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise LandmarkEmotionError(f"{what} must be finite, got {text!r}")
    return value


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
        raise LandmarkEmotionError(f"cannot persist object of type {type(model).__name__}")
    lines = [
        FORMAT_HEADER,
        f"kind: {kind}",
        f"spec_digest: {model.spec_digest}",
        "class_order: " + ",".join(CLASSES),
        "classes: " + ",".join(str(c) for c in model.classes),
        f"dimension: {model.dimension}",
    ]
    if model.mean_shape is not None:
        lines.append("mean_shape: " + _fmt_block(model.mean_shape))
    return "\n".join(lines + body) + "\n"


def _fmt_split(split: Split) -> str:
    return f"{split.feature},{split.threshold!r},{split.gain!r}"


def _gb_lines(model: GBModel) -> list[str]:
    lines = [
        f"shrinkage: {model.shrinkage!r}",
        f"tree_count: {model.tree_count}",
        "init_scores: " + _fmt_block(model.init_scores),
    ]
    for trees in model.trees:
        for tree in trees[: model.tree_count]:
            fields = ["values=" + ",".join(repr(v) for v in tree.values)]
            if tree.root is not None:
                fields.append("root=" + _fmt_split(tree.root))
            if tree.inner is not None:
                side = "inner_right" if tree.inner_right else "inner_left"
                fields.append(f"{side}=" + _fmt_split(tree.inner))
            lines.append("tree " + " ".join(fields))
    return lines


def _svm_lines(model: SVMModel) -> list[str]:
    lines = [
        f"C: {model.C!r}",
        f"gamma: {model.gamma!r}",
        "scaler_lo: " + _fmt_block(model.scaler.lo),
        "scaler_hi: " + _fmt_block(model.scaler.hi),
        "vectors: " + _fmt_block(model.vectors),
    ]
    # machine b decides pair b of combinations(classes, 2), and the loader reads one per pair
    if len(model.machines) != math.comb(len(model.classes), 2):
        raise LandmarkEmotionError("expected one machine per pair of model classes")
    for m in model.machines:
        lines.append(f"machine bias={m.bias!r}")
        lines.append("sv_indices: " + " ".join(str(int(i)) for i in m.sv_indices))
        lines.append("coef: " + _fmt_block(m.coef))
    return lines


class _LineReader:
    """The newline-separated lines of a model file, cut one at a time.

    The support-vector line is most of the file; ``find`` scans it for the
    newline alone, where ``splitlines`` checks every character against each
    kind of line break.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos >= len(self.text):
            return None
        end = self.text.find("\n", self.pos)
        return self.text[self.pos : end if end >= 0 else len(self.text)]

    def next(self) -> str:
        line = self.peek()
        if line is None:
            raise LandmarkEmotionError("unexpected end of model file")
        self.pos += len(line) + 1
        return line

    def expect_key(self, key: str) -> str:
        line = self.next()
        prefix = key + ":"
        if not line.startswith(prefix):
            raise LandmarkEmotionError(f"expected {key!r} line, got {line!r}")
        return line[len(prefix) :].strip()

    def optional_key(self, key: str) -> str | None:
        """The value of a ``key:`` line if it comes next, else None."""
        return self.expect_key(key) if self.text.startswith(key + ":", self.pos) else None


def load_model(text: str, expected_spec_digest: str | None = None) -> GBModel | SVMModel:
    """Parse a model file; verify the FeatureSpec digest when one is expected.

    Every malformed file ends in a LandmarkEmotionError.
    """
    try:
        return _parse_model(text, expected_spec_digest)
    except LandmarkEmotionError:
        raise
    except (KeyError, IndexError, ValueError) as exc:
        raise LandmarkEmotionError(f"malformed model file ({type(exc).__name__}: {exc})") from exc


def _parse_model(text: str, expected_spec_digest: str | None) -> GBModel | SVMModel:
    reader = _LineReader(text)
    header = reader.next()
    if header != FORMAT_HEADER:
        if header.startswith(_FORMAT_NAME + " "):
            raise LandmarkEmotionError(f"model file format {header.split()[-1]} is no longer read; retrain the model")
        raise LandmarkEmotionError(f"not a model file (missing {FORMAT_HEADER!r} header)")
    kind = reader.expect_key("kind")
    digest = reader.expect_key("spec_digest")
    if expected_spec_digest is not None and digest != expected_spec_digest:
        raise LandmarkEmotionError(
            f"FeatureSpec digest mismatch: model was trained on {digest or '<empty>'} "
            f"but the current configuration produces {expected_spec_digest}"
        )
    order = reader.expect_key("class_order").split(",")
    if tuple(order) != CLASSES:
        raise LandmarkEmotionError(f"model class order {order} differs from {list(CLASSES)}")
    classes = tuple(int(c) for c in reader.expect_key("classes").split(","))
    if len(set(classes)) != len(classes) or not all(0 <= c < len(CLASSES) for c in classes):
        raise LandmarkEmotionError(f"classes {list(classes)} must be distinct indices into the class order")
    if len(classes) < 2:
        raise LandmarkEmotionError(f"a model needs at least two classes, got {list(classes)}")
    dimension = int(reader.expect_key("dimension"))
    if dimension < 1:
        raise LandmarkEmotionError(f"dimension must be at least 1, got {dimension}")
    mean = reader.optional_key("mean_shape")
    common = {
        "classes": classes,
        "spec_digest": digest,
        "mean_shape": None if mean is None else _parse_block(mean, "mean_shape", POINT_COUNT, 2),
    }
    if kind == "gb":
        return _load_gb(reader, dimension, common)
    if kind == "svm":
        return _load_svm(reader, dimension, common)
    raise LandmarkEmotionError(f"unknown model kind {kind!r}")


_TREE_FIELDS = {"values", "root", "inner_left", "inner_right"}


def _parse_split(text: str, dimension: int) -> Split:
    feature, threshold, gain = text.split(",")
    split = Split(int(feature), _parse_float(threshold, "split threshold"), _parse_float(gain, "split gain"))
    if not 0 <= split.feature < dimension:
        raise LandmarkEmotionError(f"split feature index {split.feature} out of range")
    if split.gain < 0:  # training clips every gain at 0; influence shares assume it
        raise LandmarkEmotionError(f"split gain must be non-negative, got {gain!r}")
    return split


def _parse_tree(line: str, dimension: int) -> Tree:
    tag, *parts = line.split()
    if tag != "tree":
        raise LandmarkEmotionError(f"expected a tree line, got {line!r}")
    fields = dict(p.split("=", 1) for p in parts)
    if len(fields) != len(parts) or not fields.keys() <= _TREE_FIELDS:
        raise LandmarkEmotionError(f"tree line {line!r} has a repeated or unknown field")
    inner_keys = fields.keys() & {"inner_left", "inner_right"}
    if len(inner_keys) > 1 or (inner_keys and "root" not in fields):
        raise LandmarkEmotionError(f"tree line {line!r} needs a root and at most one inner split")
    root = _parse_split(fields["root"], dimension) if "root" in fields else None
    inner = _parse_split(fields[inner_keys.pop()], dimension) if inner_keys else None
    values = tuple(_parse_float(v, "leaf value") for v in fields["values"].split(","))
    if len(values) != 1 + (root is not None) + (inner is not None):
        raise LandmarkEmotionError(f"tree line {line!r} has {len(values)} leaf values for its splits")
    return Tree(values, root, inner, inner_right="inner_right" in fields)


def _load_gb(reader: _LineReader, dimension: int, common: dict) -> GBModel:
    shrinkage = float(reader.expect_key("shrinkage"))
    tree_count = int(reader.expect_key("tree_count"))
    check_gb_parameters(shrinkage, tree_count)
    k = len(common["classes"])
    init_scores = _parse_block(reader.expect_key("init_scores"), "init_scores", 1, k)[0]
    lines = []
    while reader.peek() is not None:
        lines.append(reader.next())
    # the trees run tree_count per class, in class order
    if len(lines) != k * tree_count:
        raise LandmarkEmotionError(f"expected {tree_count} trees for each of {k} classes, found {len(lines)} lines")
    trees = [_parse_tree(line, dimension) for line in lines]
    return GBModel(
        init_scores=init_scores,
        shrinkage=shrinkage,
        tree_count=tree_count,
        trees=tuple(tuple(trees[i * tree_count : (i + 1) * tree_count]) for i in range(k)),
        dimension=dimension,
        **common,
    )


def _load_svm(reader: _LineReader, dimension: int, common: dict) -> SVMModel:
    C = float(reader.expect_key("C"))
    gamma = float(reader.expect_key("gamma"))
    check_svm_parameters([C], [gamma])
    scaler = Scaler(
        lo=_parse_block(reader.expect_key("scaler_lo"), "scaler_lo", 1, dimension)[0],
        hi=_parse_block(reader.expect_key("scaler_hi"), "scaler_hi", 1, dimension)[0],
    )
    # every block's shape is checked before it is decoded, so nothing is sized by the unchecked dimension
    vectors = _parse_block(reader.expect_key("vectors"), "vectors", None, dimension)
    machines = []
    for pos, neg in combinations(common["classes"], 2):
        line = reader.next()
        if not line.startswith("machine bias="):
            raise LandmarkEmotionError(f"expected the machine for classes {pos} and {neg}, got {line!r}")
        bias = _parse_float(line[len("machine bias=") :], "bias")
        sv_indices = _parse_ints(reader.expect_key("sv_indices"))
        coef = _parse_block(reader.expect_key("coef"), "coef", 1, len(sv_indices))[0]
        if np.any((sv_indices < 0) | (sv_indices >= len(vectors))):
            raise LandmarkEmotionError("machine sv index outside the vector table")
        machines.append(BinaryMachine(sv_indices, coef, bias))
    if reader.peek() is not None:
        raise LandmarkEmotionError(f"unexpected line after the last machine: {reader.peek()!r}")
    return SVMModel(vectors=vectors, machines=tuple(machines), gamma=gamma, C=C, scaler=scaler, **common)
