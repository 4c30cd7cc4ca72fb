"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import shutil
import time

import numpy as np
import pytest

from conftest import apply_similarity, make_face, random_similarity
from qp_oracle import dual_value, kkt_violation, qp_max_enumerate
from landmark_emotion.cli import main
from landmark_emotion.evaluation import (
    ConfusionMatrix,
    influence_report,
    overall_accuracy,
    per_class_accuracy,
)
from landmark_emotion.features.extract import bif_features, point_distances, point_texture
from landmark_emotion.features.gabor import build_gabor_bank
from landmark_emotion.features.image import GrayImage
from landmark_emotion.features.spec import pair_enumeration
from landmark_emotion.learners.dataset import LabeledDataset
from landmark_emotion.learners.gb import gb_influence, gb_train
from landmark_emotion.learners.svm import rbf_kernel_matrix, smo_solve
from landmark_emotion.pipeline import PipelineConfig, build_feature_spec, read_manifest
from landmark_emotion.shapes import LandmarkSet, normalize_size, upright

from test_bif import TOY_SINGLE, brute_force_bif
from test_evaluation import TABLE3
from test_gb import blob_fixture, dataset


def report(criterion, started, detail):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) - {detail}", flush=True)


def test_criterion_1_table3_fixture_arithmetic():
    started = time.perf_counter()
    cm = ConfusionMatrix(counts=TABLE3)
    assert list(cm.counts.sum(axis=1)) == [69, 17, 41, 95, 58, 55, 37]
    acc = overall_accuracy(cm)
    assert acc == 174 / 372
    assert round(100 * acc, 1) == 46.8
    recalls = per_class_accuracy(cm)
    assert [round(100 * r) for r in recalls] == [42, 0, 2, 71, 69, 29, 57]
    assert time.perf_counter() - started < 1.0
    report(1, started, "Table-3 arithmetic: 174/372 = 46.8%, per-class percents reproduced")


def test_criterion_2_dimension_contracts(rng):
    started = time.perf_counter()
    shape = upright(normalize_size(make_face(rng, jitter=1.0).points))
    distances = point_distances(shape)
    assert distances.shape == (2278,)

    from landmark_emotion.features.extract import axis_distances
    from landmark_emotion.shapes import mean_shape

    axis = axis_distances(shape, mean_shape([shape]))
    assert axis.shape == (136,)

    img = GrayImage(rng.random((120, 120)))
    texture = point_texture(img, make_face(rng, jitter=1.0), scales=8, orientations=12)
    assert texture.shape == (6528,)
    assert time.perf_counter() - started < 1.0
    report(2, started, "dimensions 2278 / 136 / 6528 for the 68-point configuration")


def test_criterion_3_similarity_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        face = make_face(rng, jitter=2.0)
        base = point_distances(normalize_size(face.points))
        moved = apply_similarity(face.points, *random_similarity(rng))
        other = point_distances(normalize_size(moved))
        worst = max(worst, float(np.max(np.abs(base - other))))
    assert worst < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, started, f"1000 random similarity transforms, worst coordinate error {worst:.2e}")


def test_criterion_4_smo_matches_qp_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = 0
    worst_gap = 0.0
    worst_kkt = 0.0
    while checked < 20:
        n = int(rng.integers(4, 7))
        X = rng.standard_normal((n, 3))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            continue
        C = float(rng.choice([0.5, 1.0, 10.0, 100.0]))
        gamma = float(rng.choice([0.2, 1.0, 3.0]))
        K = rbf_kernel_matrix(X, X, gamma)
        alpha, bias, _ = smo_solve(K[None], y[None], [C])
        alpha, bias = alpha[0], bias[0]
        smo_obj = dual_value(K, y, alpha)
        oracle_obj, _ = qp_max_enumerate(K, y, C)
        gap = abs(smo_obj - oracle_obj)
        kkt = kkt_violation(K, y, alpha, bias, C)
        assert gap <= 1e-4, f"dual gap {gap} on problem {checked}"
        assert kkt <= 1e-3, f"KKT violation {kkt} on problem {checked}"
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, kkt)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, started, f"20 problems: worst dual gap {worst_gap:.2e}, worst KKT violation {worst_kkt:.2e}")


def test_criterion_5_gb_contract():
    started = time.perf_counter()
    fixtures = []

    train, val = blob_fixture()
    blob_model = gb_train(train, val, max_trees=40)
    fixtures.append(blob_model)
    assert max(blob_model.val_accuracy) >= 0.95

    X = np.array([[0.0], [0.1], [0.9], [1.0], [0.05], [0.95]])
    ds = dataset(X, np.array([0, 0, 3, 3, 0, 3]))
    fixtures.append(gb_train(ds, ds, max_trees=10))

    rng = np.random.default_rng(5)
    noisy = dataset(rng.random((80, 5)), np.array([0, 3, 4, 5] * 20))
    fixtures.append(gb_train(noisy, noisy, max_trees=15))

    for model in fixtures:
        deviance = np.array(model.train_deviance)
        assert np.all(np.diff(deviance) <= 1e-12), "training deviance increased"
        for per_class in model.trees:
            for tree in per_class:
                assert tree.root is not None and tree.inner is not None and len(tree.values) == 3
    report(
        5,
        started,
        f"deviance non-increasing on 3 fixtures; blob validation accuracy "
        f"{100 * max(blob_model.val_accuracy):.1f}%; all trees have 2 splits",
    )


def test_criterion_6_influence_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    spec = build_feature_spec(PipelineConfig(features=("distances",)))
    pairs = [tuple(p) for p in pair_enumeration(68)]
    designated = (36, 48)  # eye corner to mouth corner
    k_star = pairs.index(designated)
    X = rng.uniform(0.5, 2.0, size=(90, spec.total_dimension))
    y = np.array([0, 3, 4])[np.digitize(X[:, k_star], [1.0, 1.5])]
    ds = LabeledDataset(X=X, y=y)
    model = gb_train(ds, ds, max_trees=12)

    influence = gb_influence(model)
    assert abs(influence.sum() - 1.0) <= 1e-9
    full = influence_report(model, spec, top_k=spec.total_dimension)
    assert full.pairs[0] == designated
    assert abs(sum(full.shares) - 1.0) <= 1e-9
    report(
        6,
        started,
        f"pair {designated} ranks first with share {full.shares[0]:.3f}; shares sum to 1",
    )


def _run_e2e(tmp_path, tag):
    """synth -> train gb + svm -> evaluate; returns (accuracies, model/report bytes)."""
    data_dir = tmp_path / f"data_{tag}"
    assert main(["synth", "--out", str(data_dir), "--seed", "123", "--per-class", "30"]) == 0
    manifest = data_dir / "manifest.csv"

    accuracies = {}
    model_bytes = {}
    report_bytes = {}
    for model_kind, extra in (("gb", "max_trees = 60\n"), ("svm", "")):
        cfg = tmp_path / f"{model_kind}_{tag}.cfg"
        cfg.write_text(f"manifest = {manifest}\nfeatures = distances\nmodel = {model_kind}\n" + extra)
        model_path = tmp_path / f"{model_kind}_{tag}.model"
        assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
        report_path = tmp_path / f"{model_kind}_{tag}.report"
        assert main([
            "evaluate", "--config", str(cfg), "--model", str(model_path), "--out", str(report_path),
        ]) == 0
        text = report_path.read_text()
        accuracies[model_kind] = float(text.split("test accuracy:")[1].split("%")[0])
        model_bytes[model_kind] = model_path.read_bytes()
        report_bytes[model_kind] = report_path.read_bytes()
    return accuracies, model_bytes, report_bytes


def test_criterion_7_end_to_end(tmp_path, capsys):
    started = time.perf_counter()
    acc_a, models_a, reports_a = _run_e2e(tmp_path, "a")
    acc_b, models_b, reports_b = _run_e2e(tmp_path, "b")
    capsys.readouterr()  # swallow the CLI chatter
    assert acc_a["gb"] >= 85.0, f"GB test accuracy {acc_a['gb']}%"
    assert acc_a["svm"] >= 85.0, f"SVM test accuracy {acc_a['svm']}%"
    assert acc_a == acc_b
    assert models_a == models_b, "model files differ between identical runs"
    assert reports_a == reports_b, "evaluation reports differ between identical runs"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        7,
        started,
        f"synthetic 7-class set: GB {acc_a['gb']:.1f}%, SVM {acc_a['svm']:.1f}%, "
        f"models and reports byte-identical across runs",
    )


def test_criterion_8_texture_zero_and_convolution_oracle(rng):
    started = time.perf_counter()
    bank = build_gabor_bank()
    flat = GrayImage(np.full((60, 60), 0.37))
    bif = bif_features(flat, bank)
    assert np.max(np.abs(bif)) <= 1e-10

    face = make_face(rng, jitter=1.0)
    texture = point_texture(GrayImage(np.full((220, 220), 0.8)), face, scales=3, orientations=4)
    assert np.max(np.abs(texture)) <= 1e-10

    toy_bank = build_gabor_bank(**TOY_SINGLE)
    toy_img = GrayImage(rng.random((4, 4)))
    fv = bif_features(toy_img, toy_bank)
    expected = brute_force_bif(toy_img.pixels, toy_bank)
    gap = float(np.max(np.abs(fv - expected)))
    assert gap <= 1e-9
    report(8, started, f"constant images give all-zero features; brute-force oracle gap {gap:.2e}")


def test_criterion_9_protocol_hygiene(tmp_path, capsys):
    started = time.perf_counter()
    base = tmp_path / "clean"
    assert main(["synth", "--out", str(base), "--seed", "55", "--per-class", "6"]) == 0

    def train_from(data_dir, out_name):
        cfg = tmp_path / f"{out_name}.cfg"
        cfg.write_text(
            f"manifest = {data_dir / 'manifest.csv'}\nfeatures = distances\nmodel = gb\nmax_trees = 10\n"
        )
        model_path = tmp_path / f"{out_name}.model"
        assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
        return model_path.read_bytes()

    clean_bytes = train_from(base, "clean")

    # corrupt every TEST-split sample: different shapes, different labels
    tampered = tmp_path / "tampered"
    shutil.copytree(base, tampered)
    manifest = read_manifest(tampered / "manifest.csv")
    rng = np.random.default_rng(0)
    rewritten = ["id,pts_path,image_path,label,split"]
    for e in manifest.entries:
        label = e.label
        if e.split == "test":
            from landmark_emotion.shapes import write_pts

            (tampered / e.pts_path).write_text(
                write_pts(LandmarkSet(rng.random((68, 2)) * 500))
            )
            label = "Disgust" if e.label != "Disgust" else "Happy"
        rewritten.append(f"{e.sample_id},{e.pts_path},{e.image_path},{label},{e.split}")
    (tampered / "manifest.csv").write_text("\n".join(rewritten) + "\n")

    tampered_bytes = train_from(tampered, "tampered")
    assert tampered_bytes == clean_bytes, "test-split contents leaked into training"

    # control: tampering with a TRAIN sample must change the model
    control = tmp_path / "control"
    shutil.copytree(base, control)
    train_entry = next(e for e in manifest.entries if e.split == "train")
    from landmark_emotion.shapes import write_pts

    (control / train_entry.pts_path).write_text(
        write_pts(LandmarkSet(rng.random((68, 2)) * 500))
    )
    control_bytes = train_from(control, "control")
    assert control_bytes != clean_bytes, "audit cannot detect training influence"
    capsys.readouterr()
    report(9, started, "models byte-identical under test-split tampering; train tampering detected")
