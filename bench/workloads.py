"""The benchmark's workloads: seeded inputs, one timed pass, per-pass checks.

Every pass drives the library through the ``landmark-emotion`` command line,
called in-process (``landmark_emotion.cli.main``), so a pass times exactly
what ``train`` and ``evaluate`` do apart from interpreter start-up.  The
library sees only the files a set-up writes: `.pts` files, PGM images,
manifests and configs.

Why each workload exists (see README.md for the layer map):

- gb_shape: gradient-boosting split search does nearly all the work and no
  SVM code runs.  Test accuracy sits below 1.0, so a quality loss shows.
- svm_grid: the C/gamma grid search and SMO dominate; no GB code runs.  Its
  test split has absent-landmark and corrupt entries, so the Neutral
  fallback and the skip path run too.
- texture: Gabor filtering and pooling over rendered images dominate; it is
  the only workload that reads images, and its learner barely runs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from landmark_emotion import cli
from landmark_emotion.learners.svm import DEFAULT_C_GRID, DEFAULT_GAMMA_GRID
from landmark_emotion.pipeline import DatasetManifest, read_manifest, write_manifest
from landmark_emotion.shapes import parse_pts
from landmark_emotion.synth import synth_dataset

from render import render_pgm

# feature widths fixed by the paper's layout: 68 points give 2278 pair
# distances and 136 axis offsets; the default Gabor bank pools 14304 values
# and the per-landmark responses add 68 x 8 x 12 = 6528
WIDTH_DISTANCES = 2278
WIDTH_SHAPE = 2278 + 136
WIDTH_TEXTURE = 14304 + 6528

# Every third value of the default 11 x 10 grid: C from 2^-5 to 2^13 and
# gamma from 2^-15 to 2^3.  The full grid takes about 20 s per pass on a
# 2-core machine, too long to repeat inside one run.
SVM_C_GRID = DEFAULT_C_GRID[::3]
SVM_GAMMA_GRID = DEFAULT_GAMMA_GRID[::3]
# gb_shape boosts 6 iterations (7 classes x 6 trees): gb_train takes about 3 s
GB_MAX_TREES = 6
# fixed SVM hyperparameters for texture, where no grid search runs
TEXTURE_C, TEXTURE_GAMMA = 8.0, 2.0**-15
ABSENT_SHARE = 0.05  # svm_grid test entries with no landmarks (2 of 42)
CORRUPT_COUNT = 2  # svm_grid test entries whose .pts file is truncated

@dataclass
class PassResult:
    train_s: float
    eval_s: float
    samples: int  # eval-split entries labelled, the Neutral fallback included
    correct: int
    outputs: dict[str, str] = field(default_factory=dict)  # must repeat byte for byte
    details: dict = field(default_factory=dict)  # non-metric fingerprint data
    problems: list[str] = field(default_factory=list)  # failed checks

    def fingerprints(self) -> dict:
        """sha256 of every output plus the details, for the info line."""
        out = {f"{name}_sha256": sha256(text) for name, text in self.outputs.items()}
        out.update(self.details)
        return out


def _write_config(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return path


def _grid_text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def run_cli(tracer, command: str, *argv: str) -> None:
    """``landmark-emotion <command> <argv>`` in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    tracer.phase = command
    try:
        with tracer.span(f"cli.{command}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, *argv])
    finally:
        tracer.phase = ""
    if code != 0:
        raise RuntimeError(f"landmark-emotion {command} exited {code}: {err.getvalue().strip()}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _model_width(model_text: str) -> int:
    for line in model_text.splitlines():
        if line.startswith("dimension: "):
            return int(line.split(": ", 1)[1])
    raise ValueError("model file has no dimension line")


def _synth(tracer, out: Path, seed: int, per_class: int) -> Path:
    with tracer.span("synth.synth_dataset"):
        return synth_dataset(out, seed=seed, per_class_count=per_class)


def _check_common(tracer, result: PassResult, floor: float, widths: dict[str, int]) -> None:
    """Feature-width, accuracy-floor and SMO checks shared by every workload."""
    for name, expected in widths.items():
        width = _model_width(result.outputs[name])
        if width != expected:
            result.problems.append(f"{name} has {width} features, expected {expected}")
    accuracy = result.correct / result.samples
    if accuracy < floor:
        result.problems.append(f"accuracy {accuracy:.4f} is below the floor {floor}")
    hits = sum(1 for _, hit in tracer.observed.get("smo", []) if hit)
    if hits:
        result.problems.append(f"{hits} smo_solve calls stopped at max_iter")


def _evaluate(tracer, config: Path, model: Path, report: Path) -> tuple[int, int, str]:
    run_cli(tracer, "evaluate", "--config", str(config), "--model", str(model), "--out", str(report))
    cm = tracer.observed["confusion"][-1]
    return cm.total, int(np.trace(cm.counts)), report.read_text(encoding="utf-8")


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainEvaluate:
    """Set-up writes a dataset and config; a pass runs ``train`` then ``evaluate``."""

    name: str
    per_class: int
    config: dict
    width: int
    accuracy_floor: float
    # one evaluate of a 42-entry split takes 0.2-0.4 s, too short to time
    # steadily, so such workloads repeat it to about 1 s per pass
    eval_repeats: int = 1
    render: bool = False
    degrade: bool = False

    def setup(self, work: Path, seed: int, tracer) -> dict:
        manifest = _synth(tracer, work / "data", seed, self.per_class)
        if self.render:
            _add_images(tracer, manifest, seed)
        if self.degrade:
            _degrade(manifest, seed)
        config = _write_config(work / "run.cfg", manifest=manifest, **self.config)
        return {"config": config, "model": work / "run.model", "report": work / "report.txt"}

    def run_pass(self, state: dict, tracer) -> PassResult:
        t0 = time.perf_counter()
        run_cli(tracer, "train", "--config", str(state["config"]), "--model", str(state["model"]))
        t1 = time.perf_counter()
        samples = correct = 0
        for _ in range(self.eval_repeats):
            n, c, report = _evaluate(tracer, state["config"], state["model"], state["report"])
            samples, correct = samples + n, correct + c
        t2 = time.perf_counter()
        model_text = state["model"].read_text(encoding="utf-8")
        result = PassResult(t1 - t0, t2 - t1, samples, correct, {"model": model_text, "report": report})
        if self.config["model"] == "gb":
            result.details["tree_count_kept"] = tracer.observed["gb_model"][-1].tree_count
        else:
            svm_model = tracer.observed["svm_model"][-1]
            result.details["C"], result.details["gamma"] = svm_model.C, svm_model.gamma
        if "grid" in tracer.observed:
            result.details["grid_accuracy"] = tracer.observed["grid"][-1].accuracy.tolist()
        _check_common(tracer, result, self.accuracy_floor, {"model": self.width})
        return result


def _add_images(tracer, manifest_path: Path, seed: int) -> None:
    """Keep the train entries and one held-out entry; render a PGM for each.

    ``train`` needs a validation split even at a fixed C and gamma, so the
    first held-out entry becomes it; the other held-out entries are dropped,
    because every entry costs one bif_features call per load.
    """
    base = manifest_path.parent
    (base / "img").mkdir(exist_ok=True)
    manifest = read_manifest(manifest_path)
    held_out = next(e for e in manifest.entries if e.split != "train")
    kept = [e for e in manifest.entries if e.split == "train"] + [replace(held_out, split="validate")]
    entries = []
    with tracer.span("bench.render_images"):
        for index, entry in enumerate(kept):
            points = parse_pts((base / entry.pts_path).read_text(encoding="utf-8")).points
            rel = f"img/{entry.sample_id}.pgm"
            (base / rel).write_bytes(render_pgm(points, seed=seed * 100_003 + index))
            entries.append(replace(entry, image_path=rel))
    manifest_path.write_text(write_manifest(DatasetManifest(tuple(entries))), encoding="utf-8")


def _degrade(manifest_path: Path, seed: int) -> None:
    """Blank the pts_path of a seeded share of test entries; truncate a few files."""
    base = manifest_path.parent
    manifest = read_manifest(manifest_path)
    test_ids = [e.sample_id for e in manifest.entries if e.split == "test"]
    rng = np.random.default_rng(seed)
    picked = rng.permutation(len(test_ids))
    n_absent = round(ABSENT_SHARE * len(test_ids))
    absent = {test_ids[i] for i in picked[:n_absent]}
    corrupt = {test_ids[i] for i in picked[n_absent : n_absent + CORRUPT_COUNT]}
    entries = []
    for e in manifest.entries:
        if e.sample_id in corrupt:
            path = base / e.pts_path
            text = path.read_text(encoding="utf-8")
            path.write_text(text[: len(text) // 2], encoding="utf-8")
        entries.append(replace(e, pts_path="") if e.sample_id in absent else e)
    manifest_path.write_text(write_manifest(DatasetManifest(tuple(entries))), encoding="utf-8")


WORKLOADS = {
    w.name: w
    for w in (
        TrainEvaluate(
            "gb_shape",
            per_class=30,
            config={"features": "distances,axis", "model": "gb", "shrinkage": 0.1, "max_trees": GB_MAX_TREES},
            width=WIDTH_SHAPE,
            accuracy_floor=0.7,
            eval_repeats=5,
        ),
        TrainEvaluate(
            "svm_grid",
            per_class=30,
            config={
                "features": "distances",
                "model": "svm",
                "svm_c_grid": _grid_text(SVM_C_GRID),
                "svm_gamma_grid": _grid_text(SVM_GAMMA_GRID),
            },
            width=WIDTH_DISTANCES,
            accuracy_floor=0.85,
            eval_repeats=3,
            degrade=True,
        ),
        # One training image per class plus one validation image keep a pass
        # near 7 s.  A held-out set that small would move accuracy in steps
        # of 1/7 between seeds, so this workload reports accuracy on its
        # train split, which the evaluate command re-extracts from the images.
        TrainEvaluate(
            "texture",
            per_class=2,
            config={
                "features": "bif,point_texture",
                "model": "svm",
                "svm_c": TEXTURE_C,
                "svm_gamma": TEXTURE_GAMMA,
                "eval_split": "train",
            },
            width=WIDTH_TEXTURE,
            accuracy_floor=1.0,
            render=True,
        ),
    )
}
