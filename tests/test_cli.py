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


def test_synth_rejects_a_negative_seed(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "data"), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be at least 0, got -1\n"
    assert not (tmp_path / "data").exists()


def test_synth_rejects_zero_per_class(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "data"), "--per-class", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: per-class count must be at least 1, got 0\n"
    assert not (tmp_path / "data").exists()


def test_influence_command(synth_dir, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model_path = synth_dir / "gb2.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["influence", "--config", str(cfg), "--model", str(model_path), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "influence report" in out
    assert "landmarks (" in out


def test_influence_rejects_negative_top(synth_dir, tmp_path, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model_path = tmp_path / "gb.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["influence", "--config", str(cfg), "--model", str(model_path), "--top", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --top must be at least 0, got -1\n"


def test_train_evaluate_svm_grid(synth_dir, tmp_path, capsys):
    cfg = write_config(synth_dir, FAST_SVM_CONFIG)
    model_path = synth_dir / "svm.model"
    report = tmp_path / "grid.txt"
    assert main(["train", "--config", str(cfg), "--model", str(model_path), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    # the C/gamma table, its last line naming the chosen cell, then the model path
    assert out == report.read_text() + f"model written to {model_path}\n"
    lines = out.splitlines()
    assert lines[0] == "C\\gamma 0.0001 0.01"
    assert [line.split()[0] for line in lines[1:3]] == ["1", "32"]
    assert lines[3].startswith("best C=") and "validation_accuracy=" in lines[3]
    assert main(["evaluate", "--config", str(cfg), "--model", str(model_path)]) == 0
    assert "test accuracy" in capsys.readouterr().out


def test_train_prints_gb_curve(synth_dir, tmp_path, capsys):
    cfg = write_config(synth_dir, FAST_GB_CONFIG)
    model_path = tmp_path / "gb.model"
    report = tmp_path / "curve.txt"
    assert main(["train", "--config", str(cfg), "--model", str(model_path), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert out == report.read_text() + f"model written to {model_path}\n"
    lines = out.splitlines()
    assert lines[0] == "trees validation_accuracy"
    assert [line.split()[0] for line in lines[1:13]] == [str(i) for i in range(1, 13)]
    kept = next(line for line in model_path.read_text().splitlines() if line.startswith("tree_count: "))
    assert lines[13] == "best tree count: " + kept.split(": ")[1]


FIXED_SVM = "features = distances\nmodel = svm\nsvm_c = 8\nsvm_gamma = 0.001\n"


def _copy_data(synth_dir, tmp_path):
    """A copy of the synthetic data, plus ``no_validate.csv``: its manifest without the validate entries."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(synth_dir / "data", data)
    manifest = read_manifest(data / "manifest.csv")
    kept = tuple(e for e in manifest.entries if e.split != "validate")
    (data / "no_validate.csv").write_text(write_manifest(DatasetManifest(kept)))
    return data


def test_fixed_svm_train_does_not_need_a_validation_split(synth_dir, tmp_path, capsys):
    data = _copy_data(synth_dir, tmp_path)
    models = []
    for name in ("manifest.csv", "no_validate.csv"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"manifest = {data / name}\n" + FIXED_SVM)
        models.append(tmp_path / f"{name}.model")
        assert main(["train", "--config", str(cfg), "--model", str(models[-1])]) == 0
    assert capsys.readouterr().err == ""
    assert models[0].read_bytes() == models[1].read_bytes()


def test_fixed_svm_train_does_not_read_the_validation_split(synth_dir, tmp_path, capsys):
    data = _copy_data(synth_dir, tmp_path)
    victim = read_manifest(data / "manifest.csv").for_split("validate")[0]
    text = (data / victim.pts_path).read_text()
    (data / victim.pts_path).write_text(text[: len(text) // 2])
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(f"manifest = {data / 'manifest.csv'}\n" + FIXED_SVM)
    assert main(["train", "--config", str(cfg), "--model", str(tmp_path / "fixed.model")]) == 0
    assert "warning: skipped sample" not in capsys.readouterr().err
    # a learner that selects on the validation split reads it, and reports the broken file
    cfg.write_text(f"manifest = {data / 'manifest.csv'}\nfeatures = distances\nmodel = gb\nmax_trees = 2\n")
    assert main(["train", "--config", str(cfg), "--model", str(tmp_path / "gb.model")]) == 0
    assert f"warning: skipped sample {victim.sample_id}: " in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e200, 1e306])
def test_an_overflowing_shape_is_skipped_in_one_line(scale, synth_dir, tmp_path):
    """Squares (1e200) or a centroid (1e306) that overflow print only the skip warning, no numpy warning."""
    data = _copy_data(synth_dir, tmp_path)
    victim = read_manifest(data / "manifest.csv").for_split("train")[0]
    points = parse_pts((data / victim.pts_path).read_text()).points
    (data / victim.pts_path).write_text(write_pts(LandmarkSet(points * scale)))
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(f"manifest = {data / 'manifest.csv'}\n" + FIXED_SVM)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = ["train", "--config", str(cfg), "--model", str(tmp_path / "m")]
    done = subprocess.run(
        [sys.executable, "-m", "landmark_emotion", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"warning: skipped sample {victim.sample_id}: centroid size inf is not finite\n"


def test_a_face_the_image_families_reject_is_skipped(synth_dir, tmp_path, capsys):
    """A face too small to align passes the shape checks but skips its entry, shape row included."""
    data = _copy_data(synth_dir, tmp_path)
    entries = [replace(e, image_path=f"{e.sample_id}.pgm") for e in read_manifest(data / "manifest.csv").entries]
    entries = [e for e in entries if e.split == "train"][:9]
    pixels = np.random.default_rng(0).random((240, 240))
    for e in entries:
        (data / e.image_path).write_bytes(write_pgm(GrayImage(pixels)))
    tiny, broken = entries[1], entries[4]
    points = parse_pts((data / tiny.pts_path).read_text()).points
    centre = points.mean(axis=0)
    (data / tiny.pts_path).write_text(write_pts(LandmarkSet(centre + (points - centre) * 1e-11)))
    text = (data / broken.pts_path).read_text()
    (data / broken.pts_path).write_text(text[: len(text) // 2])
    models = []
    for name, kept in (("all", entries), ("kept", [e for e in entries if e not in (tiny, broken)])):
        (data / f"{name}.csv").write_text(write_manifest(DatasetManifest(tuple(kept))))
        cfg = tmp_path / f"{name}.cfg"
        features = "distances, bif, point_texture"
        cfg.write_text(f"manifest = {data / name}.csv\n" + FIXED_SVM.replace("distances", features))
        models.append(tmp_path / f"{name}.model")
        assert main(["train", "--config", str(cfg), "--model", str(models[-1])]) == 0
    # reported in manifest order, though the later entry fails first, when its file is parsed
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2, err
    reason = "eye centers coincide; alignment transform is degenerate"
    assert err[0] == f"warning: skipped sample {tiny.sample_id}: {reason}"
    assert err[1].startswith(f"warning: skipped sample {broken.sample_id}: ")
    assert models[0].read_bytes() == models[1].read_bytes()


@pytest.mark.parametrize("template", [FAST_GB_CONFIG, FAST_SVM_CONFIG], ids=["gb", "svm_grid"])
def test_selecting_train_needs_a_validation_split(template, synth_dir, tmp_path, capsys):
    data = _copy_data(synth_dir, tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(template.format(manifest=data / "no_validate.csv"))
    model_path = tmp_path / "run.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the manifest has no usable samples in the 'validate' split\n"
    assert not model_path.exists()


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
        "out": (["train", "--config", str(fixed), "--model", str(tmp_path / "m"), "--out", str(adir)], adir),
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


@pytest.mark.parametrize("bommed", ["config", "manifest", "pts"])
def test_a_leading_byte_order_mark_is_ignored(bommed, synth_dir, tmp_path, capsys):
    data = _copy_data(synth_dir, tmp_path)
    manifest = data / "manifest.csv"
    cfg = tmp_path / "gb.cfg"
    cfg.write_text(FAST_GB_CONFIG.lstrip().format(manifest=manifest))
    plain = tmp_path / "plain.model"
    assert main(["train", "--config", str(cfg), "--model", str(plain)]) == 0
    target = {"config": cfg, "manifest": manifest, "pts": data / read_manifest(manifest).entries[0].pts_path}[bommed]
    target.write_bytes(b"\xef\xbb\xbf" + target.read_bytes())  # as Windows Notepad saves UTF-8
    bommed_model = tmp_path / "bommed.model"
    assert main(["train", "--config", str(cfg), "--model", str(bommed_model)]) == 0
    assert capsys.readouterr().err == ""
    assert bommed_model.read_bytes() == plain.read_bytes()


def test_influence_rejects_svm_model(synth_dir, tmp_path, capsys):
    cfg = write_config(synth_dir, FAST_SVM_CONFIG)
    model_path = tmp_path / "svm2.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["influence", "--config", str(cfg), "--model", str(model_path)]) == 1
    assert "gradient-boosting" in capsys.readouterr().err


def test_fixed_svm(synth_dir, tmp_path, capsys):
    manifest = synth_dir / "data" / "manifest.csv"
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(
        f"manifest = {manifest}\nfeatures = distances\nmodel = svm\n"
        "svm_c = 8\nsvm_gamma = 0.001\n"
    )
    model_path = tmp_path / "fixed.model"
    assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 0
    assert "fixed C=8" in capsys.readouterr().out
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


@pytest.mark.parametrize(
    "line",
    ["texture_scales = 1000000", "aspect_factor = 1e308", "neutral_fallback = false", "merge_validation = true"],
)
def test_removed_config_key_fails_in_one_line(synth_dir, tmp_path, capsys, line):
    # keys that earlier versions read are unknown now, and fail before any file is read
    key = line.split(" = ")[0]
    entry = read_manifest(synth_dir / "data" / "manifest.csv").entries[0]
    (tmp_path / "a.pts").write_bytes((synth_dir / "data" / entry.pts_path).read_bytes())
    (tmp_path / "a.pgm").write_bytes(write_pgm(GrayImage(np.full((240, 240), 0.5))))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,pts_path,image_path,label,split\na,a.pts,a.pgm,Happy,train\n")
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(f"manifest = {manifest}\nfeatures = point_texture\nmodel = svm\n{line}\n")
    model_path = tmp_path / "removed.model"
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(cfg), "--model", str(model_path)]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
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


def test_each_command_takes_only_the_flags_it_reads(capsys):
    from landmark_emotion.cli import build_parser

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, __import__("argparse")._SubParsersAction)
    )
    run = {"--config", "--model", "--out"}
    expected = {
        "train": run,
        "evaluate": run,
        "predict": run,
        "influence": run | {"--top"},
        "synth": {"--out", "--seed", "--per-class"},
    }
    flags = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert flags == expected
    with pytest.raises(SystemExit) as exc:
        main(["train", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err



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


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # scipy.signal costs about 0.9 s at start-up; no command needs it
        ("landmark_emotion.cli", ["scipy.signal"]),
        # shape work needs neither a learner nor scipy
        ("landmark_emotion.shapes", ["landmark_emotion.learners", "scipy"]),
    ],
    ids=["cli", "shapes"],
)
def test_cli_import_leaves_scipy_signal_unloaded(module, unloaded):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        f"import sys, {module}; "
        f"print([m for m in sys.modules if any(m == u or m.startswith(u + '.') for u in {unloaded!r})])"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
