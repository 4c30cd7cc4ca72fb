"""Batch command-line interface; ``_COMMANDS`` lists the commands.

Every command takes ``--config``, ``--model``, ``--out`` and ``--seed``;
commands that do not need one simply ignore it.  Only ``synth`` reads
``--seed``: training has no randomness.  Fatal errors print a diagnostic to
stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, LandmarkEmotionError
from .evaluation import accuracy_line, confusion, influence_report, per_class_text
from .learners.dataset import LabeledDataset
from .learners.gb import GBModel, gb_train, gb_truncate
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
from .shapes import MeanShape
from .synth import synth_dataset

import numpy as np


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="pipeline config file (flat key = value text)")
    sub.add_argument("--model", help="model file path (output for train, input otherwise)")
    sub.add_argument("--out", help="output path (reports, predictions, synth directory)")
    sub.add_argument("--seed", type=int, default=0, help="random seed; only synth reads it (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landmark-emotion",
        description="Landmark-based emotion recognition: feature extraction, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "synth":
            p.add_argument("--per-class", type=int, default=10, help="samples per class (default 10)")
        if name == "influence":
            p.add_argument("--top", type=int, default=20, help="number of pairs to report")
    return parser


def _load_config(args) -> PipelineConfig:
    if not args.config:
        raise ConfigError("this command needs --config")
    return parse_config(read_utf8(args.config))


def _load_data(config: PipelineConfig, splits: tuple[str, ...], mean: MeanShape | None = None) -> LoadResult:
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


def _train_model(config: PipelineConfig, result: LoadResult):
    train = _require_split(result, "train")
    val = _require_split(result, "validate")
    train.require_labeled()
    val.require_labeled()
    notes = []
    if config.model == "gb":
        model = gb_train(train, val, shrinkage=config.shrinkage, max_trees=config.max_trees)
        notes.append(f"gb trees per class: {model.tree_count} (of {config.max_trees})")
        if config.merge_validation:
            merged = _merge(train, val)
            refit = gb_train(merged, val, shrinkage=config.shrinkage, max_trees=model.tree_count)
            model = gb_truncate(refit, model.tree_count)
            notes.append("refit on train+validate at the selected tree count")
    else:
        if config.svm_c is not None and config.svm_gamma is not None:
            C, gamma = config.svm_c, config.svm_gamma
            notes.append(f"svm fixed C={C:g} gamma={gamma:g}")
        else:
            search = grid_search(train, val, config.svm_c_grid, config.svm_gamma_grid)
            C, gamma = search.C, search.gamma
            notes.append(
                f"svm grid search: C={C:g} gamma={gamma:g} "
                f"validation accuracy {100 * search.best_accuracy:.1f}%"
            )
        fit_on = _merge(train, val) if config.merge_validation else train
        if config.merge_validation:
            notes.append("final fit on train+validate")
        model = svm_train(fit_on, C, gamma, scaler=fit_scaler(fit_on))
    mean = None if result.mean is None else result.mean.points
    model = replace(model, spec_digest=result.spec.digest(), mean_shape=mean)
    return model, notes


def _merge(train: LabeledDataset, val: LabeledDataset) -> LabeledDataset:
    X = np.vstack([train.X, val.X])
    y = np.concatenate([train.y, val.y])
    ids = tuple(train.ids) + tuple(val.ids)
    return LabeledDataset(X=X, y=y, ids=ids)


def _cmd_train(args) -> int:
    if not args.model:
        raise ConfigError("train needs --model (output path for the model file)")
    config = _load_config(args)
    result = _load_data(config, ("train", "validate"))
    model, notes = _train_model(config, result)
    Path(args.model).write_text(save_model(model), encoding="utf-8")
    for note in notes:
        print(note)
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
    mean = None
    if "axis" in config.features:
        if model.mean_shape is None:
            raise ConfigError("the config selects axis features but the model has no mean shape; retrain it")
        mean = MeanShape(points=model.mean_shape, sample_count=None)
    split = config.eval_split
    result = _load_data(config, (split,), mean)
    dataset = result.datasets[split]
    absent = result.absent[split]
    if dataset is None and not absent:
        raise ConfigError(f"the manifest has no usable samples in the {split!r} split")
    labels = predict_with_fallback(model, dataset, absent, neutral_fallback=config.neutral_fallback)
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
    out_dir = args.out or "synth_data"
    manifest_path = synth_dataset(out_dir, seed=args.seed, per_class_count=args.per_class)
    print(f"synthetic dataset written: {manifest_path} ({args.per_class} per class, seed {args.seed})")
    return 0


def _cmd_gridsearch(args) -> int:
    config = _load_config(args)
    result = _load_data(config, ("train", "validate"))
    train = _require_split(result, "train")
    val = _require_split(result, "validate")
    if config.model == "svm":
        search = grid_search(train, val, config.svm_c_grid, config.svm_gamma_grid)
        text = search.curve_text()
    else:
        model = gb_train(train, val, shrinkage=config.shrinkage, max_trees=config.max_trees)
        lines = ["trees validation_accuracy"]
        for i, acc in enumerate(model.val_accuracy, start=1):
            lines.append(f"{i} {100 * acc:.1f}")
        lines.append(f"best tree count: {model.tree_count}")
        text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


_COMMANDS = {
    "train": (_cmd_train, "fit a model per the config and write a model file"),
    "evaluate": (_cmd_evaluate, "load a model, predict a split, print confusion matrix and accuracy"),
    "predict": (_cmd_predict, "emit one 'id<TAB>label' line per sample of the evaluation split"),
    "influence": (_cmd_influence, "print the ranked landmark-pair influence report of a GB model"),
    "synth": (_cmd_synth, "generate a seeded synthetic landmark dataset"),
    "gridsearch": (_cmd_gridsearch, "print the full hyperparameter search curve"),
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
