import base64
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from landmark_emotion.cli import main
from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.features.spec import FeatureBlock, FeatureSpec
from landmark_emotion.learners.dataset import LabeledDataset
from landmark_emotion.learners.gb import gb_predict_batch, gb_scores, gb_train
from landmark_emotion.learners.persist import load_model, save_model
from landmark_emotion.learners.svm import (
    BinaryMachine,
    Scaler,
    SVMModel,
    fit_scaler,
    svm_decision_votes,
    svm_predict_batch,
    svm_train,
)
from landmark_emotion.pipeline import PipelineConfig, build_feature_spec


def plain_spec(dim):
    return FeatureSpec(blocks=(FeatureBlock("raw", dim),))


def three_class(rng, n_per=10):
    centers = {0: (0, 0), 3: (5, 0), 6: (0, 5)}
    X, y = [], []
    for cls, c in centers.items():
        X.append(rng.normal(0, 0.4, size=(n_per, 2)) + c)
        y.extend([cls] * n_per)
    X = np.vstack(X)
    return LabeledDataset(X=X, y=np.array(y))


def test_gb_roundtrip(rng):
    ds = three_class(rng)
    model = gb_train(ds, ds, max_trees=6)
    mean = rng.normal(size=(68, 2))
    model = replace(model, spec_digest=plain_spec(2).digest(), mean_shape=mean)
    text = save_model(model)
    loaded = load_model(text)
    assert loaded.spec_digest == plain_spec(2).digest()
    assert np.array_equal(loaded.mean_shape, mean)
    assert loaded.classes == model.classes
    assert loaded.tree_count == model.tree_count
    probe = rng.random((30, 2)) * 6
    assert np.array_equal(gb_predict_batch(loaded, probe), gb_predict_batch(model, probe))
    assert np.allclose(gb_scores(loaded, probe), gb_scores(model, probe), atol=0)
    assert save_model(loaded) == text  # byte-identical re-save


def test_svm_roundtrip(rng):
    ds = three_class(rng)
    scaler = fit_scaler(ds)
    model = svm_train(ds, C=4.0, gamma=0.8, scaler=scaler)
    model = replace(model, spec_digest=plain_spec(2).digest())
    text = save_model(model)
    loaded = load_model(text, expected_spec_digest=plain_spec(2).digest())
    assert loaded.mean_shape is None
    probe = rng.random((25, 2)) * 6
    assert np.array_equal(svm_predict_batch(loaded, probe), svm_predict_batch(model, probe))
    assert np.array_equal(svm_decision_votes(loaded, probe), svm_decision_votes(model, probe))
    assert loaded.scaler is not None
    assert np.array_equal(loaded.scaler.lo, scaler.lo)
    assert save_model(loaded) == text


def test_float_blocks_round_trip_bit_exact():
    """Signed zeros, subnormals and the extremes keep every bit."""
    vectors = np.array([[-0.0, 5e-324, 0.1], [1.7976931348623157e308, -2.2250738585072014e-308, 1 / 3]])
    coef = np.array([1e-300, -2.5])
    model = SVMModel(
        classes=(0, 4),
        vectors=vectors,
        machines=(BinaryMachine(np.array([0, 1]), coef, -0.0),),
        gamma=0.5,
        C=math.inf,
        scaler=Scaler(lo=np.array([-0.0, 5e-324, -1e308]), hi=np.array([1e308, 0.5, -0.0])),
        mean_shape=np.full((68, 2), -0.0),
    )
    text = save_model(model)
    loaded = load_model(text)
    assert loaded.vectors.tobytes() == vectors.tobytes()
    assert loaded.scaler.lo.tobytes() == model.scaler.lo.tobytes()
    assert loaded.scaler.hi.tobytes() == model.scaler.hi.tobytes()
    assert loaded.machines[0].coef.tobytes() == coef.tobytes()
    assert loaded.mean_shape.tobytes() == model.mean_shape.tobytes()
    assert save_model(loaded) == text


def test_digest_mismatch_rejected(rng):
    ds = three_class(rng)
    model = gb_train(ds, ds, max_trees=2)
    model = replace(model, spec_digest=plain_spec(2).digest())
    text = save_model(model)
    other = build_feature_spec(PipelineConfig(features=("distances",))).digest()
    with pytest.raises(LandmarkEmotionError, match="digest"):
        load_model(text, expected_spec_digest=other)


def test_malformed_model_files(rng):
    ds = three_class(rng)
    model = gb_train(ds, ds, max_trees=2)
    text = save_model(model)
    with pytest.raises(LandmarkEmotionError, match="not a model file"):
        load_model("not a model\n")
    with pytest.raises(LandmarkEmotionError, match="unknown model kind 'forest'"):
        load_model(text.replace("kind: gb", "kind: forest"))
    # truncated tree section
    truncated = "\n".join(text.splitlines()[:-1])
    with pytest.raises(LandmarkEmotionError, match="expected 1 trees for each of 3 classes, found 2 lines"):
        load_model(truncated)


# (1-feature X, labels, probe rows that reach the first tree's leaves left to right):
# boosting from these fits a first tree of the named layout with distinct leaf values
TREE_LAYOUTS = {
    "leaf": ([0, 0, 0, 0], [0, 3, 0, 3], [0]),
    "stump": ([0, 0, 1, 1, 1], [0, 0, 0, 0, 3], [0, 1]),
    "inner_left": ([0, 1, 2, 3, 4], [0, 3, 0, 0, 3], [1, 2, 4]),
    "inner_right": ([0, 1, 2, 3, 4], [0, 0, 3, 0, 3], [0, 2, 3]),
}


@pytest.mark.parametrize("layout", sorted(TREE_LAYOUTS))
def test_every_tree_layout_round_trips(layout):
    values, labels, probes = TREE_LAYOUTS[layout]
    X = np.array(values, dtype=float)[:, None]
    ds = LabeledDataset(X=X, y=np.array(labels))
    model = gb_train(ds, ds, max_trees=3)
    tree = model.trees[0][0]
    assert (tree.root is None, tree.inner is None, tree.inner_right) == {
        "leaf": (True, True, False),
        "stump": (False, True, False),
        "inner_left": (False, False, False),
        "inner_right": (False, False, True),
    }[layout]
    assert len(tree.values) == len(tree.splits) + 1 == len(probes)

    text = save_model(model)
    loaded = load_model(text)
    assert save_model(loaded) == text
    probe = np.linspace(-1.0, 5.0, 25)[:, None]
    assert np.allclose(gb_scores(loaded, probe), gb_scores(model, probe), atol=0)
    leaf_rows = np.array(probes, dtype=float)[:, None]
    assert np.array_equal(tree.predict(leaf_rows), np.array(tree.values))


def _sub_first(pattern, new):
    def edit(text):
        edited, count = re.subn(pattern, new, text, count=1)
        assert count == 1
        return edited

    return edit


def _set_first_value(key, value):
    """Re-encode the first ``key:`` block with its first value replaced."""

    def edit(text):
        match = re.search(rf"(?m)^{key}: b64 \d+ \d+ (\S+)$", text)
        table = np.frombuffer(base64.b64decode(match.group(1)), dtype="<f8").copy()
        table[0] = value
        data = base64.b64encode(table.tobytes()).decode("ascii")
        return text[: match.start(1)] + data + text[match.end(1) :]

    return edit


def _keep_one_class(text):
    """The file with only the second of its classes 0, 3, 6: its init score and trees, and no machine."""
    text = _sub_first("classes: 0,3,6", "classes: 3")(text)
    match = re.search(r"(?m)^init_scores: b64 1 3 (\S+)$", text)
    if match is None:  # an SVM: one class has no class pair, so no machine
        return re.sub(r"(?m)^(machine|sv_indices|coef)\b.*\n", "", text)
    score = base64.b64encode(base64.b64decode(match.group(1))[8:16]).decode("ascii")
    text = text[: match.start()] + "init_scores: b64 1 1 " + score + text[match.end() :]
    tree_count = int(re.search(r"tree_count: (\d+)", text).group(1))
    trees = re.findall(r"(?m)^tree .*\n", text)
    assert len(trees) == 3 * tree_count
    return text[: text.index("\ntree ") + 1] + "".join(trees[tree_count : 2 * tree_count])


def _drop_trees(text):
    """The GB file with ``tree_count: 0`` and none of its tree lines."""
    text = _sub_first(r"tree_count: \d+", "tree_count: 0")(text)
    return re.sub(r"(?m)^tree .*\n", "", text)


def _without_splits(dimension):
    """The GB file with ``dimension: <dimension>`` and every tree a single leaf, which no split index refutes."""

    def edit(text):
        text = _sub_first(r"dimension: \d+", f"dimension: {dimension}")(text)
        return re.sub(r"(?m)^tree .*$", "tree values=0.0", text)

    return edit


# (model kind, edit of a valid model file, raw exception the LandmarkEmotionError wraps, or None
# when a check rejects the file before any parsing step fails, what the error message says)
MALFORMED = {
    "v1_header": ("gb", _sub_first("landmark-emotion-model v3", "landmark-emotion-model v1"), None, "format v1"),
    "v2_header": ("gb", _sub_first("landmark-emotion-model v3", "landmark-emotion-model v2"), None, "format v2"),
    # a tree's class follows from its position, so a v2 class field is unknown
    "tree_class_field": ("gb", _sub_first(r"(?m)^tree ", "tree class=0 "), None, "repeated or unknown field"),
    "tree_count_mismatch": ("gb", _sub_first(r"tree_count: \d+", "tree_count: 3"), None, "found 3 lines"),
    "truncated_tree_line": ("gb", _sub_first(r"(?m)^tree .*$", "tree"), KeyError, r"\(KeyError: 'values'\)"),
    "classes_not_numbers": ("gb", _sub_first("classes: 0,3,6", "classes: a"), ValueError, r"int\(\) with base 10: 'a'"),
    "split_without_gain": ("gb", _sub_first(r"(root=\d+,[^,]+),\S+", r"\1"), ValueError, "not enough values to unpack"),
    "empty_last_tree": ("gb", _sub_first(r"values=\S+(.*\n)\Z", r"values=\1"), ValueError, "to float: ''"),
    "blank_line_after_vectors": ("svm", _sub_first(r"(?m)^machine ", "\nmachine "), None, "classes 0 and 3, got ''"),
    "gb_class_out_of_range": ("gb", _sub_first("classes: 0,3,6", "classes: 0,3,9"), None, r"\[0, 3, 9\] must be"),
    # the file holds one machine more than its three classes have pairs
    "repeated_machine_pair": (
        "svm",
        _sub_first(r"(?m)^(machine .*\nsv_indices: .*\ncoef: .*\n)", r"\1\1"),
        None,
        "after the last machine: 'machine ",
    ),
    "line_after_last_machine": ("svm", lambda text: text + "coef: 1.0\n", None, "after the last machine: 'coef: 1.0'"),
    "negative_sv_index": ("svm", _sub_first(r"(?m)^sv_indices: \d+", "sv_indices: -1"), None, "sv index outside"),
    "svm_class_out_of_range": ("svm", _sub_first("classes: 0,3,6", "classes: 0,3,9"), None, r"\[0, 3, 9\] must be"),
    "vector_count_past_end": (
        "svm",
        _sub_first(r"vectors: b64 \d+", "vectors: b64 10000000000000"),
        None,
        "not 10000000000000 x 2 float64",
    ),
    "svm_without_scaler": ("svm", _sub_first(r"scaler_lo: .*\nscaler_hi: .*\n", ""), None, "expected 'scaler_lo' line"),
    # the scaler block's shape check must refute the dimension before anything is decoded
    "huge_dimension": (
        "svm",
        _sub_first(r"dimension: \d+", "dimension: 10000000000000"),
        None,
        r"expected \(1, 10000000000000\)",
    ),
    # otherwise valid files of one class, which training never makes
    "one_class_svm": ("svm", _keep_one_class, None, r"two classes, got \[3\]"),
    "one_class_gb": ("gb", _keep_one_class, None, r"two classes, got \[3\]"),
    # no tree lines: gb_train always keeps at least one tree
    "zero_trees": ("gb", _drop_trees, None, "tree count must be at least 1, got 0"),
    "dimension_zero": ("gb", _without_splits(0), None, "dimension must be at least 1, got 0"),
    "dimension_negative": ("gb", _without_splits(-5), None, "dimension must be at least 1, got -5"),
    # tree lines: the first tree of the GB fixture has its inner split on the root's left child
    "tree_unknown_field": ("gb", _sub_first(r"(?m)^(tree .*)$", r"\1 iter=0"), None, "repeated or unknown field"),
    "repeated_tree_field": ("gb", _sub_first(r"( root=\S+)", r"\1\1"), None, "repeated or unknown field"),
    # an inner split with no root above it
    "unreachable_split": ("gb", _sub_first(r" root=\S+ inner_left=", " inner_left="), None, "needs a root"),
    # a root and both inner keys, with a leaf value for each of the three splits
    "three_split_tree": (
        "gb",
        _sub_first(r"(?m)(values=\S+)( .* inner_left=(\S+))$", r"\1,1.0\2 inner_right=\3"),
        None,
        "needs a root and at most one inner split",
    ),
    "leaf_count_mismatch": ("gb", _sub_first(r"values=(\S+)", r"values=\1,1.0"), None, "has 4 leaf values"),
    # parameter ranges, and finiteness of every other stored float
    "shrinkage_nan": ("gb", _sub_first(r"shrinkage: \S+", "shrinkage: nan"), None, r"\(0, 1\], got nan"),
    "shrinkage_zero": ("gb", _sub_first(r"shrinkage: \S+", "shrinkage: 0.0"), None, r"\(0, 1\], got 0\.0"),
    "shrinkage_above_one": ("gb", _sub_first(r"shrinkage: \S+", "shrinkage: 1.5"), None, r"\(0, 1\], got 1\.5"),
    "init_score_inf": ("gb", _set_first_value("init_scores", math.inf), None, "init_scores must be finite"),
    "threshold_nan": ("gb", _sub_first(r"root=(\d+),[^,]+,", r"root=\1,nan,"), None, "threshold must be finite"),
    "gain_inf": ("gb", _sub_first(r"(root=\d+,[^,]+),\S+", r"\1,inf"), None, "gain must be finite"),
    # training clips every gain at 0, and gb_influence normalises only a positive total
    "gain_negative": ("gb", _sub_first(r"(root=\d+,[^,]+),\S+", r"\1,-1e6"), None, "non-negative, got '-1e6'"),
    "leaf_value_nan": ("gb", _sub_first(r"values=[^,\s]+", "values=nan"), None, "leaf value must be finite"),
    "gamma_inf": ("svm", _sub_first(r"gamma: \S+", "gamma: inf"), None, "and finite, got inf"),
    "gamma_nan": ("svm", _sub_first(r"gamma: \S+", "gamma: nan"), None, "and finite, got nan"),
    "gamma_zero": ("svm", _sub_first(r"gamma: \S+", "gamma: 0.0"), None, r"and finite, got 0\.0"),
    "C_zero": ("svm", _sub_first(r"(?m)^C: \S+", "C: 0.0"), None, r"C must be positive, got 0\.0"),
    "C_nan": ("svm", _sub_first(r"(?m)^C: \S+", "C: nan"), None, "C must be positive, got nan"),
    "scaler_inf": ("svm", _set_first_value("scaler_lo", -math.inf), None, "scaler_lo must be finite"),
    "vector_nan": ("svm", _set_first_value("vectors", math.nan), None, "vectors must be finite"),
    "coef_inf": ("svm", _set_first_value("coef", math.inf), None, "coef must be finite"),
    "bias_nan": ("svm", _sub_first(r"bias=\S+", "bias=nan"), None, "bias must be finite"),
    "mean_shape_inf": ("gb", _set_first_value("mean_shape", math.inf), None, "mean_shape must be finite"),
    # float blocks: b64 <rows> <cols> <base64 of little-endian float64>
    "block_not_base64": ("svm", _sub_first(r"(?m)^(vectors: b64 \d+ \d+ \S{8})\S", r"\1!"), ValueError, "base64"),
    "block_length_mismatch": ("svm", _sub_first(r"vectors: b64 \d+ ", "vectors: b64 1 "), None, "144 bytes, not 1 x 2"),
    "block_negative_rows": ("svm", _sub_first(r"vectors: b64 \d+ ", "vectors: b64 -3 "), None, r"shape \(-3, 2\)"),
    "block_fractional_cols": (
        "gb",
        _sub_first(r"init_scores: b64 1 3 ", "init_scores: b64 1 2.5 "),
        ValueError,
        r"int\(\) with base 10: '2\.5'",
    ),
    "block_truncated": ("svm", _sub_first(r"(?m)^(vectors: .*)\S{4}$", r"\1"), None, "141 bytes, not 9 x 2"),
    "block_without_tag": ("gb", _sub_first(r"init_scores: b64 ", "init_scores: "), None, "init_scores is not a 'b64"),
    "mean_shape_wrong_shape": (
        "gb",
        _sub_first(r"mean_shape: b64 68 2 ", "mean_shape: b64 34 4 "),
        None,
        r"mean_shape has shape \(34, 4\), expected \(68, 2\)",
    ),
}


def test_v1_model_file_names_its_version(valid_model_texts):
    for version in ("v1", "v2"):
        text = valid_model_texts["gb"].replace("model v3", f"model {version}", 1)
        with pytest.raises(LandmarkEmotionError, match=f"format {version} is no longer read; retrain"):
            load_model(text)


def test_save_rejects_a_wrong_machine_count(valid_model_texts):
    model = load_model(valid_model_texts["svm"])
    with pytest.raises(LandmarkEmotionError, match="one machine per pair"):
        save_model(replace(model, machines=model.machines[:-1]))


@pytest.fixture(scope="module")
def valid_model_texts():
    """A GB and an SVM model file whose digest matches a distances-only config; the GB one has a mean shape."""
    rng = np.random.default_rng(5)
    ds = three_class(rng)
    digest = build_feature_spec(PipelineConfig(features=("distances",))).digest()
    mean = rng.normal(size=(68, 2))
    return {
        "gb": save_model(replace(gb_train(ds, ds, max_trees=2), spec_digest=digest, mean_shape=mean)),
        "svm": save_model(replace(svm_train(ds, C=4.0, gamma=0.8, scaler=fit_scaler(ds)), spec_digest=digest)),
    }


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_model_raises_only_format_error(case, valid_model_texts, tmp_path, capsys):
    kind, edit, leaked, message = MALFORMED[case]
    text = edit(valid_model_texts[kind])
    with pytest.raises(LandmarkEmotionError, match=message) as caught:
        load_model(text)
    if leaked is not None:
        assert isinstance(caught.value.__cause__, leaked)

    model_path = tmp_path / "bad.model"
    model_path.write_text(text, encoding="utf-8")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"manifest = {tmp_path / 'manifest.csv'}\nfeatures = distances\nmodel = {kind}\n")
    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
