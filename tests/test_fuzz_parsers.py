"""Seeded fuzzing of the five input parsers: only package errors may escape.

Each case edits a small valid input (replaces, deletes, inserts or repeats
tokens and separators, or cuts the text short).  Inserted numbers are small,
so no edited file can make a parser allocate more than a few kilobytes.
"""
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmark_emotion.errors import LandmarkEmotionError
from landmark_emotion.features.image import GrayImage, read_pgm, write_pgm
from landmark_emotion.features.spec import FeatureBlock, FeatureSpec
from landmark_emotion.learners.dataset import UNLABELED, LabeledDataset
from landmark_emotion.learners.gb import gb_train
from landmark_emotion.learners.persist import load_model, save_model
from landmark_emotion.learners.svm import fit_scaler, svm_train
from landmark_emotion.pipeline import build_feature_spec, parse_config, predict_with_fallback, read_manifest
from landmark_emotion.shapes import parse_pts

FUZZ = settings(derandomize=True, deadline=None, max_examples=200, database=None)

PIECES = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["", " ", "\n", "=", ",", ":", "-", ".", "x", "nan", "inf", "{", "}", "#", '"', "é", "\x00"]),
)


@st.composite
def edits_of(draw, text: str) -> str:
    parts = re.split(r"([\s=,:]+)", text)  # tokens and the separators between them
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(parts) - 1))
        op = draw(st.sampled_from(("replace", "delete", "insert", "repeat", "cut")))
        if op == "replace":
            parts[i] = draw(PIECES)
        elif op == "delete":
            del parts[i]
        elif op == "insert":
            parts.insert(i, draw(PIECES))
        elif op == "repeat":
            parts.insert(i, parts[i])
        else:
            parts = parts[:i]
        if not parts:
            parts = [""]
    return "".join(parts)


def plain_spec(dim):
    return FeatureSpec(blocks=(FeatureBlock("raw", dim),))


def _valid_models() -> dict[str, str]:
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0, 0.4, size=(6, 2)) + c for c in ((0, 0), (5, 0), (0, 5))])
    ds = LabeledDataset(X=X, y=np.repeat([0, 3, 6], 6))
    digest = plain_spec(2).digest()
    mean = rng.normal(size=(68, 2))
    return {
        "gb": save_model(replace(gb_train(ds, ds, max_trees=2), spec_digest=digest, mean_shape=mean)),
        "svm": save_model(replace(svm_train(ds, C=4.0, gamma=0.8, scaler=fit_scaler(ds)), spec_digest=digest)),
    }


VALID_MODELS = _valid_models()
VALID_PTS = "version: 1\nn_points: 3\n{\n1.5 2\n3 4.25\n5 6\n}\n"
VALID_PGM = write_pgm(GrayImage(np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 0.1]]))).decode("latin-1")
VALID_MANIFEST = (
    "id,pts_path,image_path,label,split\n"
    "a,pts/a.pts,img/a.pgm,Happy,train\n"
    "b,,,Sad,test\n"
    '"c",pts/c.pts,,,validate\n'
)
VALID_CONFIG = (
    "# fuzz seed\n"
    "manifest = data/manifest.csv\n"
    "features = distances, axis, point_texture\n"
    "model = svm\n"
    "svm_c = 4\n"
    "svm_gamma = 0.5\n"
    "svm_c_grid = 1, 4\n"
    "svm_gamma_grid = 0.5\n"
    "shrinkage = 0.1\n"
    "max_trees = 5\n"
    "aspect_factor = 1.25\n"
    "neutral_fallback = true\n"
    "merge_validation = false\n"
    "eval_split = test\n"
)


def test_valid_inputs_parse(tmp_path):
    """The unedited inputs are valid, so the edits start from accepted files."""
    assert read_pgm(VALID_PGM.encode("latin-1")).width == 3
    path = tmp_path / "manifest.csv"
    path.write_text(VALID_MANIFEST, encoding="utf-8")
    assert len(read_manifest(path).entries) == 3
    assert build_feature_spec(parse_config(VALID_CONFIG)).total_dimension > 0
    for text in VALID_MODELS.values():
        load_model(text)


@FUZZ
@given(edits_of(VALID_PTS))
def test_fuzz_pts(text):
    try:
        parse_pts(text)
    except LandmarkEmotionError:
        pass


@FUZZ
@given(edits_of(VALID_PGM))
def test_fuzz_pgm(text):
    try:
        read_pgm(text.encode("latin-1"))
    except LandmarkEmotionError:
        pass


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "manifest.csv"


@FUZZ
@given(text=edits_of(VALID_MANIFEST), encoding=st.sampled_from(("utf-8", "latin-1")))
def test_fuzz_manifest(manifest_path, text, encoding):
    manifest_path.write_bytes(text.encode(encoding))
    try:
        read_manifest(manifest_path)
    except LandmarkEmotionError:
        pass


@FUZZ
@given(edits_of(VALID_CONFIG))
def test_fuzz_config(text):
    try:
        build_feature_spec(parse_config(text))
    except LandmarkEmotionError:
        pass


@FUZZ
@given(kind=st.sampled_from(sorted(VALID_MODELS)), data=st.data())
def test_fuzz_model(kind, data):
    text = data.draw(edits_of(VALID_MODELS[kind]))
    try:
        model = load_model(text)
    except LandmarkEmotionError:
        return
    zero = LabeledDataset(X=np.zeros((1, model.dimension)), y=[UNLABELED])
    try:
        predict_with_fallback(model, zero)
    except LandmarkEmotionError:
        pass
