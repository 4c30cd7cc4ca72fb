"""Batch command-line interface; ``_COMMANDS`` lists the commands.

Each command takes only the flags it reads: ``synth`` takes ``--out``,
``--seed`` and ``--per-class``; the other commands take ``--config``,
``--model`` and ``--out``, and ``influence`` also ``--top``.  Training has
no randomness, so only ``synth`` has a seed.  Fatal errors print a
diagnostic to stderr and exit nonzero.

``train`` is the one command that fits a model.  It prints what it selected,
and writes the same text to ``--out`` when given: the validation curve over
the tree count for gradient boosting, the C/gamma validation table for a
grid-searched SVM, or the fixed C and gamma.  It reads the ``validate``
split only when it selects on it.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, LandmarkEmotionError
from .evaluation import accuracy_line, confusion, influence_report, per_class_text
from .learners.dataset import LabeledDataset
from .learners.gb import GBModel, gb_train
from .learners.persist import load_model, save_model
from .learners.svm import fit_scaler, grid_search, svm_train
from .pipeline import (
    LoadResult,
    ManifestEntry,
    PipelineConfig,
    build_feature_spec,
    load_dataset,
    parse_config,
    predict_with_fallback,
    read_manifest,  # unused here, but the benchmark wraps it under this module
    read_utf8,
)
from .synth import synth_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landmark-emotion",
        description="Landmark-based emotion recognition: feature extraction, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "synth":
            p.add_argument("--out", help="dataset directory (default synth_data)")
            p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
            p.add_argument("--per-class", type=int, default=10, help="samples per class (default 10)")
            continue
        p.add_argument("--config", help="pipeline config file (flat key = value text)")
        p.add_argument("--model", help="model file path (output for train, input otherwise)")
        p.add_argument("--out", help="also write the printed report or predictions to this path")
        if name == "influence":
            p.add_argument("--top", type=int, default=20, help="number of pairs to report")
    return parser


def _load_config(args) -> PipelineConfig:
    if not args.config:
        raise ConfigError("this command needs --config")
    return parse_config(read_utf8(args.config))


def _load_data(config: PipelineConfig, splits: tuple[str, ...], mean: np.ndarray | None = None) -> LoadResult:
    """Load only ``splits`` and print a warning for each entry skipped in them."""
    if not config.manifest:
        raise ConfigError("config must name a manifest (key 'manifest')")
    result = load_dataset(config.manifest, config, splits, mean)
    for sid, message in result.errors:
        print(f"warning: skipped sample {sid}: {message}", file=sys.stderr)
    return result


def _require_split(result: LoadResult, split: str) -> LabeledDataset:
    ds = result.datasets.get(split)
    if ds is None:
        raise ConfigError(f"the manifest has no usable samples in the {split!r} split")
    return ds


def _selects(config: PipelineConfig) -> bool:
    """Whether training selects on the validation split: GB, or an SVM without a fixed C and gamma."""
    return config.model == "gb" or config.svm_c is None


def _train_model(config: PipelineConfig, result: LoadResult):
    """Fit the configured learner; return the model and a report of what it selected."""
    train = _require_split(result, "train")
    if config.model == "gb":
        val = _require_split(result, "validate")
        model = gb_train(train, val, shrinkage=config.shrinkage, max_trees=config.max_trees)
        lines = ["trees validation_accuracy"]
        lines += [f"{i} {100 * acc:.1f}" for i, acc in enumerate(model.val_accuracy, start=1)]
        report = "\n".join([*lines, f"best tree count: {model.tree_count}"]) + "\n"
    else:
        if _selects(config):
            val = _require_split(result, "validate")
            search = grid_search(train, val, config.svm_c_grid, config.svm_gamma_grid)
            C, gamma, report = search.C, search.gamma, search.curve_text()
        else:
            C, gamma = config.svm_c, config.svm_gamma
            report = f"svm fixed C={C:g} gamma={gamma:g}\n"
        model = svm_train(train, C, gamma, scaler=fit_scaler(train))
    return replace(model, spec_digest=result.spec.digest(), mean_shape=result.mean), report


def _cmd_train(args) -> int:
    if not args.model:
        raise ConfigError("train needs --model (output path for the model file)")
    config = _load_config(args)
    result = _load_data(config, ("train", "validate") if _selects(config) else ("train",))
    model, report = _train_model(config, result)
    Path(args.model).write_text(save_model(model), encoding="utf-8")
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    print(f"model written to {args.model}")
    return 0


def _load_model_checked(args, config: PipelineConfig):
    if not args.model:
        raise ConfigError("this command needs --model (path of a trained model file)")
    expected = build_feature_spec(config).digest()
    return load_model(read_utf8(args.model), expected_spec_digest=expected)


def _predict_eval_split(args) -> tuple[PipelineConfig, list[tuple[ManifestEntry, str]]]:
    """The config and each eval-split entry with its predicted label, in manifest order.

    Entries skipped by a per-entry load error are left out.
    """
    config = _load_config(args)
    model = _load_model_checked(args, config)
    if "axis" in config.features and model.mean_shape is None:
        raise ConfigError("the config selects axis features but the model has no mean shape; retrain it")
    split = config.eval_split
    result = _load_data(config, (split,), model.mean_shape)
    dataset = result.datasets[split]
    absent = result.absent[split]
    if dataset is None and not absent:
        raise ConfigError(f"the manifest has no usable samples in the {split!r} split")
    labels = predict_with_fallback(model, dataset, absent)
    return config, [(e, labels[e.sample_id]) for e in result.entries[split] if e.sample_id in labels]


def _cmd_evaluate(args) -> int:
    config, predictions = _predict_eval_split(args)
    for entry, _ in predictions:
        if not entry.label:
            raise ConfigError(f"cannot evaluate: sample {entry.sample_id!r} is unlabeled")
    cm = confusion([label for _, label in predictions], [entry.label for entry, _ in predictions])
    report = cm.to_text() + accuracy_line(cm, config.eval_split) + "\n" + per_class_text(cm) + "\n"
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report + "\n" + cm.to_machine_text(), encoding="utf-8")
    return 0


def _cmd_predict(args) -> int:
    _, predictions = _predict_eval_split(args)
    lines = [f"{entry.sample_id}\t{label}" for entry, label in predictions]
    text = "\n".join(lines) + ("\n" if lines else "")
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_influence(args) -> int:
    if args.top < 0:
        raise ConfigError(f"--top must be at least 0, got {args.top}")
    config = _load_config(args)
    model = _load_model_checked(args, config)
    if not isinstance(model, GBModel):
        raise ConfigError("influence analysis needs a gradient-boosting model")
    spec = build_feature_spec(config)
    report = influence_report(model, spec, top_k=args.top)
    text = report.to_text()
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_synth(args) -> int:
    if args.per_class < 1:
        raise ConfigError(f"--per-class must be at least 1, got {args.per_class}")
    out_dir = args.out or "synth_data"
    manifest_path = synth_dataset(out_dir, seed=args.seed, per_class_count=args.per_class)
    print(f"synthetic dataset written: {manifest_path} ({args.per_class} per class, seed {args.seed})")
    return 0


_COMMANDS = {
    "train": (_cmd_train, "fit a model per the config, print what it selected, write a model file"),
    "evaluate": (_cmd_evaluate, "load a model, predict a split, print confusion matrix and accuracy"),
    "predict": (_cmd_predict, "emit one 'id<TAB>label' line per sample of the evaluation split"),
    "influence": (_cmd_influence, "print the ranked landmark-pair influence report of a GB model"),
    "synth": (_cmd_synth, "generate a seeded synthetic landmark dataset"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler, _ = _COMMANDS[args.command]
        return handler(args)
    except LandmarkEmotionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
