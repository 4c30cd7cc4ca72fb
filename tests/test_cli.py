import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from landmark_emotion.cli import main
from landmark_emotion.evaluation import ConfusionMatrix
from landmark_emotion.features.image import GrayImage, write_pgm
from landmark_emotion.learners.dataset import CLASSES
from landmark_emotion.pipeline import DatasetManifest, read_manifest, write_manifest
from landmark_emotion.shapes import LandmarkSet, parse_pts, write_pts

FAST_SVM_CONFIG = """
manifest = {manifest}
features = distances
model = svm
svm_c_grid = 1, 32
svm_gamma_grid = 0.0001, 0.01
"""

FAST_GB_CONFIG = """
manifest = {manifest}
features = distances
model = gb
max_trees = 12
"""


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_synth")
    assert main(["synth", "--out", str(root / "data"), "--seed", "3", "--per-class", "8"]) == 0
    return root


def write_config(root, template):
    manifest = root / "data" / "manifest.csv"
    cfg = root / f"cfg_{abs(hash(template)) % 10**8}.txt"
    cfg.write_text(template.format(manifest=manifest))
    return cfg


def parse_matrix(stdout):
    """Pull the 7x7 integer matrix back out of `evaluate` output."""
    rows = []
    for name in CLASSES:
        for line in stdout.splitlines():
            if line.startswith(name):
                rows.append([int(tok) for tok in line.split()[1:]])
                break
    assert len(rows) == 7, stdout
    return np.array(rows)


def test_synth_outputs(synth_dir):
    manifest = read_manifest(synth_dir / "data" / "manifest.csv")
    assert len(manifest.entries) == 56


def test_train_evaluate_predict_gb(synth_dir, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model_path = synth_dir / "gb.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    assert model_path.exists()
    capsys.readouterr()

    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "test accuracy:" in out
    matrix = parse_matrix(out)
    cm = ConfusionMatrix(counts=matrix)
    trace_over_total = 100.0 * np.trace(matrix) / matrix.sum()
    printed = float(out.split("test accuracy:")[1].split("%")[0])
    assert printed == pytest.approx(round(trace_over_total, 1), abs=1e-9)

    assert main(["predict", "--config", str(cfg), "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    manifest = read_manifest(synth_dir / "data" / "manifest.csv")
    assert len(lines) == len(manifest.for_split("test"))
    for line in lines:
        sid, label = line.split("\t")
        assert label in CLASSES


def test_influence_command(synth_dir, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model_path = synth_dir / "gb2.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["influence", "--config", str(cfg), "--model", str(model_path), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "influence report" in out
    assert "landmarks (" in out


def test_train_evaluate_svm_and_gridsearch(synth_dir, capsys):
    cfg = write_config(synth_dir, FAST_SVM_CONFIG)
    model_path = synth_dir / "svm.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "grid search" in out
    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path)]) == 0
    assert "test accuracy" in capsys.readouterr().out
    assert main(["gridsearch", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "best C=" in out


def test_gridsearch_gb_curve(synth_dir, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    assert main(["gridsearch", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "trees validation_accuracy" in out
    assert "best tree count:" in out


AXIS_CONFIGS = {
    "gb": "features = distances, axis\nmodel = gb\nmax_trees = 6\n",
    "svm": "features = distances, axis\nmodel = svm\nsvm_c = 8\nsvm_gamma = 0.001\n",
}


@pytest.mark.parametrize("kind", sorted(AXIS_CONFIGS))
def test_predictions_do_not_depend_on_the_predict_time_manifest(kind, tmp_path, capsys):
    """The model stores the training mean shape, so predict reads only the evaluation split."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "4", "--per-class", "8"]) == 0
    manifest = read_manifest(data / "manifest.csv")
    # the same test split; the train split is one face with its jaw line widened,
    # so its mean differs a lot from the model's
    test = manifest.for_split("test")
    points = parse_pts((data / test[0].pts_path).read_text()).points.copy()
    points[:17] *= 1.5
    (data / "far.pts").write_text(write_pts(LandmarkSet(points)))
    far = replace(test[0], sample_id="far", pts_path="far.pts", split="train")
    other = data / "other.csv"
    other.write_text(write_manifest(DatasetManifest((far,) + test)))
    model = tmp_path / "axis.model"
    cfg = tmp_path / "run.cfg"

    def run(command, manifest_path):
        cfg.write_text(f"manifest = {manifest_path}\n" + AXIS_CONFIGS[kind])
        capsys.readouterr()
        code = main([command, "--config", str(cfg), "--model", str(model)])
        out, err = capsys.readouterr()
        return code, out, err

    assert run("train", data / "manifest.csv")[0] == 0
    assert "mean_shape: b64 68 2 " in model.read_text()
    code, expected, _ = run("predict", data / "manifest.csv")
    assert code == 0 and expected.count("\n") == len(manifest.for_split("test"))
    assert run("predict", other) == (0, expected, "")
    for entry in manifest.for_split("train"):
        (data / entry.pts_path).unlink()
    assert run("predict", data / "manifest.csv") == (0, expected, "")

    # an axis model without its mean cannot predict
    lines = model.read_text().splitlines(keepends=True)
    model.write_text("".join(line for line in lines if not line.startswith("mean_shape:")))
    code, _, err = run("predict", data / "manifest.csv")
    assert code == 1 and len(err.splitlines()) == 1 and "mean shape" in err, err


def test_model_files_byte_identical(synth_dir, tmp_path):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    a = tmp_path / "a.model"
    b = tmp_path / "b.model"
    assert main(["train", "--config", str(cfg), "--model", str(a)]) == 0
    assert main(["train", "--config", str(cfg), "--model", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_digest_mismatch_is_fatal(synth_dir, tmp_path, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model_path = tmp_path / "m.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    other_cfg = write_config(synth_dir, FAST_GB_CONFIG.replace("features = distances", "features = distances, axis"))
    code = main(["evaluate", "--config", str(other_cfg), "--model", str(model_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "digest" in err


def test_missing_inputs_fail_cleanly(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg"), "--model", str(tmp_path / "m")]) == 1
    assert "file not found" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("features = distances\n")
    assert main(["train", "--config", str(cfg), "--model", str(tmp_path / "m")]) == 1
    assert "manifest" in capsys.readouterr().err
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config", "manifest", "model_in", "model_out", "out", "synth_out"])
def test_unusable_paths_fail_in_one_line(case, synth_dir, tmp_path, capsys):
    adir = tmp_path / "adir"
    adir.mkdir()
    afile = tmp_path / "afile"
    afile.write_text("")
    fixed = write_config(synth_dir, FAST_SVM_CONFIG + "svm_c = 1\nsvm_gamma = 0.01\n")
    dir_manifest = tmp_path / "dir_manifest.cfg"
    dir_manifest.write_text(f"manifest = {adir}\nfeatures = distances\n")
    argv, named = {
        "config": (["train", "--config", str(adir), "--model", str(tmp_path / "m")], adir),
        "manifest": (["train", "--config", str(dir_manifest), "--model", str(tmp_path / "m")], adir),
        "model_in": (["evaluate", "--config", str(fixed), "--model", str(adir)], adir),
        "model_out": (["train", "--config", str(fixed), "--model", str(adir)], adir),
        "out": (["gridsearch", "--config", str(fixed), "--out", str(adir)], adir),
        "synth_out": (["synth", "--out", str(afile), "--per-class", "1"], afile),
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0], err


def test_non_utf8_inputs_fail_cleanly(synth_dir, tmp_path, capsys):
    latin1 = "# caf\u00e9\n".encode("latin-1")
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model = tmp_path / "m.model"
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(latin1)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(latin1 + cfg.read_bytes())
    manifest_cfg = tmp_path / "manifest.cfg"
    manifest_cfg.write_text(f"manifest = {manifest}\nfeatures = distances\n")
    model.write_bytes(latin1)
    for argv in (
        ["train", "--config", str(bad_cfg), "--model", str(model)],
        ["train", "--config", str(manifest_cfg), "--model", str(tmp_path / "out.model")],
        ["evaluate", "--config", str(cfg), "--model", str(model)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "UTF-8" in err[0], err


def test_influence_rejects_svm_model(synth_dir, tmp_path, capsys):
    cfg = write_config(synth_dir, FAST_SVM_CONFIG)
    model_path = tmp_path / "svm2.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["influence", "--config", str(cfg), "--model", str(model_path)]) == 1
    assert "gradient-boosting" in capsys.readouterr().err


def test_fixed_svm_and_merge_validation(synth_dir, tmp_path, capsys):
    manifest = synth_dir / "data" / "manifest.csv"
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(
        f"manifest = {manifest}\nfeatures = distances\nmodel = svm\n"
        "svm_c = 8\nsvm_gamma = 0.001\nmerge_validation = true\n"
    )
    model_path = tmp_path / "fixed.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "fixed C=8" in out
    assert "train+validate" in out
    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path)]) == 0
    assert "test accuracy" in capsys.readouterr().out


def test_infinite_svm_gamma_fails_cleanly(synth_dir, tmp_path, capsys):
    manifest = synth_dir / "data" / "manifest.csv"
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(f"manifest = {manifest}\nfeatures = distances\nmodel = svm\nsvm_c = 1\nsvm_gamma = inf\n")
    model_path = tmp_path / "inf.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "gamma" in err[0], err
    assert not model_path.exists()



def test_infinite_gamma_in_grid_fails_cleanly(synth_dir, tmp_path, capsys):
    # only the last grid value is bad, so a check of the grid's minimum misses it
    manifest = synth_dir / "data" / "manifest.csv"
    cfg = tmp_path / "grid_inf.cfg"
    cfg.write_text(
        f"manifest = {manifest}\nfeatures = distances\nmodel = svm\n"
        "svm_c_grid = 1\nsvm_gamma_grid = 0.01,inf\n"
    )
    model_path = tmp_path / "grid_inf.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "gamma" in err[0], err
    assert not model_path.exists()


def test_overflowing_aspect_factor_fails_cleanly(synth_dir, tmp_path, capsys):
    manifest = synth_dir / "data" / "manifest.csv"
    cfg = tmp_path / "aspect.cfg"
    cfg.write_text(f"manifest = {manifest}\nfeatures = distances\nmodel = gb\naspect_factor = 1e308\n")
    model_path = tmp_path / "aspect.model"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "aspect_factor" in err[0], err
    assert not model_path.exists()


def test_unbounded_texture_scales_fail_fast(synth_dir, tmp_path, capsys):
    # each scale adds a larger kernel: unbounded, this config builds kernels for minutes
    entry = read_manifest(synth_dir / "data" / "manifest.csv").entries[0]
    (tmp_path / "a.pts").write_bytes((synth_dir / "data" / entry.pts_path).read_bytes())
    (tmp_path / "a.pgm").write_bytes(write_pgm(GrayImage(np.full((240, 240), 0.5))))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,pts_path,image_path,label,split\na,a.pts,a.pgm,Happy,train\n")
    cfg = tmp_path / "scales.cfg"
    cfg.write_text(f"manifest = {manifest}\nfeatures = point_texture\nmodel = svm\ntexture_scales = 1000000\n")
    model_path = tmp_path / "scales.model"
    started = time.perf_counter()
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "texture_scales" in err[0], err
    assert not model_path.exists()


def test_absent_landmarks_get_neutral_fallback(synth_dir, tmp_path, capsys):
    # copy the synthetic data and blank out one test entry's landmarks
    import shutil

    data = tmp_path / "data"
    shutil.copytree(synth_dir / "data", data)
    manifest_path = data / "manifest.csv"
    manifest = read_manifest(manifest_path)
    victim = next(e for e in manifest.entries if e.split == "test")
    text = manifest_path.read_text().replace(f"{victim.sample_id},{victim.pts_path}", f"{victim.sample_id},")
    manifest_path.write_text(text)

    cfg = tmp_path / "fb.cfg"
    cfg.write_text(f"manifest = {manifest_path}\nfeatures = distances\nmodel = gb\nmax_trees = 8\n")
    model_path = tmp_path / "fb.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg), "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split("\t") for line in out.splitlines() if line)
    assert lines[victim.sample_id] == "Neutral"
    assert len(lines) == len(read_manifest(manifest_path).for_split("test"))

    # fallback disabled: the absent sample is a fatal error
    cfg_off = tmp_path / "fb_off.cfg"
    cfg_off.write_text(
        f"manifest = {manifest_path}\nfeatures = distances\nmodel = gb\nmax_trees = 8\n"
        "neutral_fallback = false\n"
    )
    model2 = tmp_path / "fb2.model"
    assert main(["train", "--config", str(cfg_off), "--model", str(model2)]) == 0
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_off), "--model", str(model2)]) == 1
    assert "fallback" in capsys.readouterr().err


def test_every_command_takes_common_flags():
    from landmark_emotion.cli import build_parser

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, __import__("argparse")._SubParsersAction)
    )
    assert set(subparsers.choices) == {
        "train", "evaluate", "predict", "influence", "synth", "gridsearch",
    }
    for name, sub in subparsers.choices.items():
        flags = {opt for action in sub._actions for opt in action.option_strings}
        assert {"--config", "--model", "--out", "--seed"} <= flags, name



def test_out_flag_writes_reports(synth_dir, tmp_path, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model_path = tmp_path / "m.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    report = tmp_path / "report.txt"
    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path), "--out", str(report)]) == 0
    text = report.read_text()
    assert "confusion-matrix v1" in text
    preds = tmp_path / "preds.tsv"
    assert main(["predict", "--config", str(cfg), "--model", str(model_path), "--out", str(preds)]) == 0
    assert preds.read_text().count("\t") == len(read_manifest(synth_dir / "data" / "manifest.csv").for_split("test"))


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about 0.9 s at start-up; no command needs it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import landmark_emotion.cli, sys; print('scipy.signal' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
