import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import face_with_anchors
from ingest_reference import reference_features, reference_upright
from landmark_emotion import pipeline
from landmark_emotion.errors import ConfigError, DimensionMismatchError, FormatError
from landmark_emotion.features.image import GrayImage, write_pgm
from landmark_emotion.learners.dataset import CLASSES, UNLABELED, LabeledDataset
from landmark_emotion.learners.gb import gb_train
from landmark_emotion.pipeline import (
    DatasetManifest,
    ManifestEntry,
    PipelineConfig,
    build_feature_spec,
    load_dataset,
    parse_config,
    predict_with_fallback,
    read_manifest,
    write_manifest,
)
from landmark_emotion.shapes import LandmarkSet, mean_shape, write_pts
from landmark_emotion.synth import synth_shape


def write_fixture_dataset(tmp_path, rng, labels_splits, with_images=False):
    """Write pts (and optionally PGM) files plus a manifest; returns its path."""
    entries = []
    for i, (label, split) in enumerate(labels_splits):
        sid = f"s{i:02d}"
        shape = synth_shape(label or "Neutral", rng)
        pts_rel = f"{sid}.pts"
        (tmp_path / pts_rel).write_text(write_pts(shape))
        image_rel = ""
        if with_images:
            image_rel = f"{sid}.pgm"
            pixels = rng.random((240, 240))
            (tmp_path / image_rel).write_bytes(write_pgm(GrayImage(pixels)))
        entries.append(ManifestEntry(sid, pts_rel, image_rel, label, split))
    manifest = DatasetManifest(entries=tuple(entries))
    path = tmp_path / "manifest.csv"
    path.write_text(write_manifest(manifest))
    return path


def test_manifest_roundtrip(tmp_path, rng):
    path = write_fixture_dataset(
        tmp_path, rng, [("Happy", "train"), ("Sad", "validate"), ("Angry", "test")]
    )
    manifest = read_manifest(path)
    assert len(manifest.entries) == 3
    assert manifest.for_split("train")[0].sample_id == "s00"
    assert write_manifest(manifest) == path.read_text()


def test_manifest_validation(tmp_path):
    header = "id,pts_path,image_path,label,split\n"
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("id,pts\n")
    with pytest.raises(FormatError):
        read_manifest(bad_header)
    dup = tmp_path / "b.csv"
    dup.write_text(header + "x,a.pts,,Happy,train\nx,b.pts,,Sad,test\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_manifest(dup)
    bad_label = tmp_path / "c.csv"
    bad_label.write_text(header + "x,a.pts,,Joyful,train\n")
    with pytest.raises(FormatError, match="Joyful"):
        read_manifest(bad_label)
    bad_split = tmp_path / "d.csv"
    bad_split.write_text(header + "x,a.pts,,Happy,holdout\n")
    with pytest.raises(FormatError, match="holdout"):
        read_manifest(bad_split)


@pytest.mark.parametrize(
    "row", ["x,a\0.pts,,Happy,train", "x,a.pts,a\0.pgm,Happy,train"], ids=["pts_path", "image_path"]
)
def test_manifest_rejects_nul_in_paths(tmp_path, row):
    path = tmp_path / "manifest.csv"
    path.write_text("id,pts_path,image_path,label,split\n" + row + "\n")
    with pytest.raises(FormatError, match="NUL character"):
        read_manifest(path)


def test_load_dataset_basic(tmp_path, rng):
    path = write_fixture_dataset(
        tmp_path, rng,
        [("Happy", "train"), ("Sad", "train"), ("Angry", "train"),
         ("Happy", "validate"), ("Fear", "test")],
    )
    config = PipelineConfig(manifest=str(path), features=("distances",))
    result = load_dataset(path, config)
    assert len(result.datasets["train"]) == 3
    assert len(result.datasets["validate"]) == 1
    assert len(result.datasets["test"]) == 1
    assert result.datasets["train"].dimension == 2278
    assert result.errors == ()
    assert result.datasets["train"].ids == ("s00", "s01", "s02")


def test_load_dataset_absent_and_errors(tmp_path, rng):
    path = write_fixture_dataset(
        tmp_path, rng, [("Happy", "train"), ("Sad", "test"), ("Angry", "test")]
    )
    # make one entry ABSENT and one unreadable
    text = path.read_text()
    text = text.replace("s01.pts", "")  # s01 loses its landmarks
    path.write_text(text)
    (tmp_path / "s02.pts").write_text("version: 1\nn_points: 68\n{\nbroken\n}\n")
    config = PipelineConfig(manifest=str(path), features=("distances",))
    result = load_dataset(path, config)
    assert result.absent["test"] == ("s01",)
    assert result.datasets["test"] is None  # the only parsable test entry failed
    assert len(result.errors) == 1 and result.errors[0][0] == "s02"


def test_load_dataset_checks_feature_width(tmp_path, rng, monkeypatch):
    path = write_fixture_dataset(tmp_path, rng, [("Happy", "train"), ("Sad", "test")])
    real = pipeline.point_distances
    monkeypatch.setattr(pipeline, "point_distances", lambda shapes: real(shapes)[..., :-1])

    def never_built(*args, **kwargs):
        raise AssertionError("a dataset was built before its width was checked")

    monkeypatch.setattr(pipeline, "LabeledDataset", never_built)
    with pytest.raises(DimensionMismatchError, match="2277 columns"):
        load_dataset(path, PipelineConfig(manifest=str(path)))


def test_load_dataset_matches_face_by_face_ingestion(tmp_path, rng):
    """The stacked steps give the features and skipped entries of a face-by-face loop."""
    rows = [("Happy", "train"), ("Sad", "train"), ("Fear", "train"), ("Angry", "train")]
    rows += [("Disgust", "validate"), ("Neutral", "validate")]
    rows += [(label, "test") for label in ("Happy", "Sad", "Surprise", "Fear", "Angry", "Neutral", "Disgust")]
    rows += [("Happy", "test")]
    path = write_fixture_dataset(tmp_path, rng, rows)
    broken = {
        "s03": write_pts(LandmarkSet(np.full((68, 2), 3.0))),  # all points coincide
        "s07": write_pts(face_with_anchors((5.0, 5.0), (5.0, 5.0), (5.0, 9.0))),  # eye centres coincide
        "s08": write_pts(LandmarkSet(rng.standard_normal((10, 2)))),  # not the 68-point layout
        "s10": (tmp_path / "s10.pts").read_text()[:400],  # truncated
        "s11": write_pts(LandmarkSet(1e200 * rng.standard_normal((68, 2)))),  # centroid size overflows
    }
    for sid, text in broken.items():
        (tmp_path / f"{sid}.pts").write_text(text)
    (tmp_path / "s13.pts").unlink()  # a missing file
    path.write_text(path.read_text().replace("s09.pts", ""))  # landmarks absent

    result = load_dataset(path, PipelineConfig(manifest=str(path), features=("distances", "axis")))
    shapes, errors = reference_upright(path)
    assert result.errors == tuple(errors)
    assert [sid for sid, _ in errors] == ["s03", "s07", "s08", "s10", "s11", "s13"]
    assert result.absent["test"] == ("s09",)
    mean = mean_shape(list(shapes["train"].values()))
    assert result.mean.tobytes() == mean.tobytes()
    for split, by_id in shapes.items():
        X = np.stack([reference_features(shape, mean) for shape in by_id.values()])
        assert result.datasets[split].ids == tuple(by_id)
        assert result.datasets[split].X.tobytes() == X.tobytes()


@pytest.mark.parametrize("step", ["parse_pts", "normalize_size", "upright"])
def test_load_dataset_lets_a_failing_step_propagate(tmp_path, rng, monkeypatch, step):
    """Only input errors skip an entry; an error inside a step is not reported as a skipped sample."""
    path = write_fixture_dataset(tmp_path, rng, [("Happy", "train"), ("Sad", "test")])

    def broken(*args, **kwargs):
        raise RuntimeError(f"{step} is broken")

    monkeypatch.setattr(pipeline, step, broken)
    with pytest.raises(RuntimeError, match=f"{step} is broken"):
        load_dataset(path, PipelineConfig(manifest=str(path)))


def test_load_dataset_mixed_splits_counts(tmp_path, rng):
    rows = [("Happy", "train")] * 4 + [("Sad", "validate")] * 2 + [("Angry", "test")] * 3
    path = write_fixture_dataset(tmp_path, rng, rows)
    config = PipelineConfig(manifest=str(path))
    result = load_dataset(path, config)
    assert [len(result.datasets[s] or ()) for s in ("train", "validate", "test")] == [4, 2, 3]


def test_axis_features_use_training_mean(tmp_path, rng):
    rows = [("Happy", "train"), ("Sad", "train"), ("Angry", "test")]
    path = write_fixture_dataset(tmp_path, rng, rows)
    config = PipelineConfig(manifest=str(path), features=("distances", "axis"))
    result = load_dataset(path, config)
    assert result.mean is not None
    train = result.datasets["train"]
    assert train.dimension == 2278 + 136

    # recompute the mean independently from the two TRAIN pts files only
    from landmark_emotion.shapes import mean_shape, normalize_size, parse_pts, upright

    shapes = [
        upright(normalize_size(parse_pts((tmp_path / f"s{i:02d}.pts").read_text()).points))
        for i in (0, 1)
    ]
    expected_mean = mean_shape(shapes)
    assert np.allclose(result.mean, expected_mean, atol=1e-12)
    axis_block = train.X[:, 2278:]
    assert np.allclose(axis_block[0], (shapes[0] - expected_mean).ravel(), atol=1e-12)

    # a mean including the test shape would be different
    test_shape = upright(normalize_size(parse_pts((tmp_path / "s02.pts").read_text()).points))
    tainted = mean_shape(shapes + [test_shape])
    assert not np.allclose(result.mean, tainted, atol=1e-9)


def test_load_dataset_reads_only_its_splits(tmp_path, rng):
    rows = [("Happy", "train"), ("Sad", "train"), ("Angry", "test"), ("Fear", "test")]
    path = write_fixture_dataset(tmp_path, rng, rows)
    config = PipelineConfig(manifest=str(path), features=("distances", "axis"))
    full = load_dataset(path, config)
    (tmp_path / "s00.pts").write_text("not a landmark file")
    with pytest.raises(ConfigError, match="training shape"):
        load_dataset(path, config, ("test",))

    result = load_dataset(path, config, ("test",), full.mean)
    assert result.errors == ()  # the broken train file was never read
    assert result.datasets.keys() == result.absent.keys() == result.entries.keys() == {"test"}
    assert [e.sample_id for e in result.entries["test"]] == ["s02", "s03"]
    assert np.array_equal(result.datasets["test"].X, full.datasets["test"].X)


def test_texture_features_through_pipeline(tmp_path, rng):
    rows = [("Happy", "train"), ("Sad", "train"), ("Angry", "test")]
    path = write_fixture_dataset(tmp_path, rng, rows, with_images=True)
    config = PipelineConfig(
        manifest=str(path),
        features=("distances", "bif", "point_texture"),
    )
    result = load_dataset(path, config)
    spec = build_feature_spec(config)
    assert result.datasets["train"].dimension == spec.total_dimension
    assert spec.total_dimension == 2278 + 14304 + 6528
    assert result.errors == ()


def test_images_required_for_texture(tmp_path, rng):
    path = write_fixture_dataset(tmp_path, rng, [("Happy", "train")], with_images=False)
    config = PipelineConfig(manifest=str(path), features=("bif",))
    with pytest.raises(ConfigError, match="image"):
        load_dataset(path, config)


def test_unlabeled_entries(tmp_path, rng):
    path = write_fixture_dataset(
        tmp_path, rng, [("Happy", "train"), ("Sad", "train"), ("", "test")]
    )
    config = PipelineConfig(manifest=str(path))
    result = load_dataset(path, config)
    assert result.datasets["test"].y[0] == UNLABELED
    with pytest.raises(Exception):
        result.datasets["test"].require_labeled()


# --- config parsing -----------------------------------------------------------


def test_parse_config_full():
    text = """
# pipeline configuration
manifest = data/manifest.csv
features = distances, axis
model = gb
shrinkage = 0.05
max_trees = 40
eval_split = validate
svm_c_grid = 1, 2, 4
svm_gamma_grid = 0.5
"""
    config = parse_config(text)
    assert config.manifest == "data/manifest.csv"
    assert config.features == ("distances", "axis")
    assert config.model == "gb"
    assert config.shrinkage == 0.05
    assert config.max_trees == 40
    assert config.eval_split == "validate"
    assert config.svm_c_grid == (1.0, 2.0, 4.0)
    assert config.svm_gamma_grid == (0.5,)


# every config key with a non-default value: (config text, parsed value)
NON_DEFAULT_VALUES = {
    "manifest": ("data/manifest.csv", "data/manifest.csv"),
    "features": ("axis, bif", ("axis", "bif")),
    "model": ("gb", "gb"),
    "shrinkage": ("0.05", 0.05),
    "max_trees": ("40", 40),
    "svm_c": ("8", 8.0),
    "svm_gamma": ("0.5", 0.5),
    "svm_c_grid": ("1, 2,4", (1.0, 2.0, 4.0)),
    "svm_gamma_grid": ("0.5", (0.5,)),
    "eval_split": ("validate", "validate"),
}


def test_every_config_field_parses():
    assert set(NON_DEFAULT_VALUES) == {f.name for f in dataclasses.fields(PipelineConfig)}
    config = parse_config("".join(f"{key} = {raw}\n" for key, (raw, _) in NON_DEFAULT_VALUES.items()))
    default = PipelineConfig()
    for key, (_, expected) in NON_DEFAULT_VALUES.items():
        value = getattr(config, key)
        assert value == expected and type(value) is type(expected), key
        assert getattr(default, key) != expected, key


def test_readme_config_table_names_every_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    key_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    named = [name for cell in key_cells for name in re.findall(r"`(\w+)`", cell)]
    assert sorted(named) == sorted(f.name for f in dataclasses.fields(PipelineConfig))


@pytest.mark.parametrize(
    "text,match",
    [
        ("bogus_key = 1", "unknown config keys"),
        ("features = ", "at least one"),
        ("features = lbp", "unknown feature family"),
        ("model = forest", "model"),
        ("max_trees = many", "non-numeric"),
        ("max_trees = 60.0", "'max_trees' needs an integer, got '60.0'"),
        ("no equals sign here", "key = value"),
        ("seed = 1\nseed = 2", "duplicate"),
        ("svm_c_grid = 1,x", "svm_c_grid"),
        ("aspect_factor = inf", "aspect_factor"),
        ("svm_c = 8", "svm_gamma"),
        ("svm_gamma = 0.5", "svm_c"),
        ("svm_c = 0\nsvm_gamma = 1", "svm_c must"),
        ("svm_c = 1\nsvm_gamma = inf", "svm_gamma must"),
        ("svm_c_grid = ", "svm_c_grid must"),
        ("svm_gamma_grid = -1", "svm_gamma_grid must"),
        ("shrinkage = 0", "shrinkage"),
        ("shrinkage = 1.5", "shrinkage"),
        ("max_trees = 0", "max_trees"),
        ("texture_scales = 0", "texture_scales"),
        ("texture_scales = 17", "texture_scales"),
        ("texture_orientations = 0", "texture_orientations"),
        ("texture_orientations = 33", "texture_orientations"),
    ],
)
def test_parse_config_rejects(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_build_feature_spec_dimensions():
    assert build_feature_spec(PipelineConfig()).total_dimension == 2278
    both = PipelineConfig(features=("axis", "distances"))
    spec = build_feature_spec(both)
    # canonical family order: distances first regardless of config order
    assert spec.blocks[0].extractor == "distances"
    assert spec.total_dimension == 2414


# --- fallback prediction --------------------------------------------------------


def trained_toy_model(rng):
    X = np.vstack([rng.normal(0, 0.3, (8, 2)), rng.normal(5, 0.3, (8, 2))])
    y = np.array([0] * 8 + [3] * 8)
    ds = LabeledDataset(X=X, y=y, ids=tuple(f"t{i}" for i in range(16)))
    return gb_train(ds, ds, max_trees=4), ds


def test_fallback_all_absent(rng):
    model, _ = trained_toy_model(rng)
    labels = predict_with_fallback(model, None, ("a", "b", "c"))
    assert labels == {"a": "Neutral", "b": "Neutral", "c": "Neutral"}


def test_fallback_none_absent_equals_plain(rng):
    model, ds = trained_toy_model(rng)
    labels = predict_with_fallback(model, ds, ())
    assert set(labels) == set(ds.ids)
    assert all(lbl in CLASSES for lbl in labels.values())


def test_fallback_one_absent_among_n(rng):
    model, ds = trained_toy_model(rng)
    labels = predict_with_fallback(model, ds, ("missing",))
    assert len(labels) == len(ds) + 1
    assert labels["missing"] == "Neutral"
    forced = [sid for sid, lbl in labels.items() if sid == "missing"]
    assert len(forced) == 1
