"""Dataset ingestion and the end-to-end feature pipeline.

A manifest CSV (`id,pts_path,image_path,label,split`) names every sample.
An empty pts_path marks a sample whose landmarks are ABSENT (the face
detector failed); those are carried separately so prediction can apply the
Neutral fallback.  Features are extracted per split, and only for the
splits a command asks for.  Anything fit on data (the mean shape, the SVM
scaler) uses the training split only and is stored in the model, so a
prediction reads nothing outside the split it predicts.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, FormatError
from .features.extract import (
    axis_distances,
    bif_block,
    bif_features,
    point_distances,
    point_texture,
    point_texture_block,
)
from .features.gabor import FilterBank, build_gabor_bank
from .features.image import GrayImage, align_face, aspect_correct, aspect_correct_points, read_pgm
from .features.spec import FeatureBlock, FeatureSpec
from .learners.dataset import CLASSES, UNLABELED, LabeledDataset, label_index
from .learners.gb import DEFAULT_SHRINKAGE, GBModel, gb_predict_batch
from .learners.svm import DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, SVMModel, svm_predict_batch
from .shapes import (
    POINT_COUNT,
    LandmarkSet,
    MeanShape,
    NormalizedShape,
    mean_shape,
    normalize_size,
    parse_pts,
    upright,
)

SPLITS = ("train", "validate", "test")
FEATURE_FAMILIES = ("distances", "axis", "bif", "point_texture")
# point_texture's filter set is fixed, as bif's is by DEFAULT_BANDS
TEXTURE_SCALES = 8
TEXTURE_ORIENTATIONS = 12


@dataclass(frozen=True)
class ManifestEntry:
    sample_id: str
    pts_path: str  # empty string = landmarks ABSENT
    image_path: str  # empty string = no image
    label: str  # empty string = UNLABELED
    split: str

    @property
    def absent(self) -> bool:
        return self.pts_path == ""


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.sample_id in seen:
                raise FormatError(f"duplicate sample id {e.sample_id!r} in manifest")
            seen.add(e.sample_id)
            if e.split not in SPLITS:
                raise FormatError(f"entry {e.sample_id!r} has unknown split {e.split!r}")
            if e.label and e.label not in CLASSES:
                raise FormatError(f"entry {e.sample_id!r} has unknown label {e.label!r}")

    def for_split(self, split: str) -> tuple[ManifestEntry, ...]:
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r}")
        return tuple(e for e in self.entries if e.split == split)


MANIFEST_HEADER = ["id", "pts_path", "image_path", "label", "split"]


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; any other encoding is a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text") from exc


def read_manifest(path: str | Path) -> DatasetManifest:
    reader = csv.reader(io.StringIO(read_utf8(path)))
    rows = list(reader)
    if not rows or rows[0] != MANIFEST_HEADER:
        raise FormatError(f"manifest must start with header {','.join(MANIFEST_HEADER)!r}")
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise FormatError(f"manifest line {line_no} has {len(row)} fields, expected 5")
        entries.append(ManifestEntry(*(f.strip() for f in row)))
    return DatasetManifest(entries=tuple(entries))


def write_manifest(manifest: DatasetManifest) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for e in manifest.entries:
        writer.writerow([e.sample_id, e.pts_path, e.image_path, e.label, e.split])
    return out.getvalue()


@dataclass(frozen=True)
class PipelineConfig:
    """Feature selection, model choice, and hyperparameters for a run."""

    manifest: str = ""
    features: tuple[str, ...] = ("distances",)
    model: str = "svm"
    # gradient boosting
    shrinkage: float = DEFAULT_SHRINKAGE
    max_trees: int = 100
    # SVM: fixed (C, gamma) when both are given, grid search when neither is
    svm_c: float | None = None
    svm_gamma: float | None = None
    svm_c_grid: tuple[float, ...] = DEFAULT_C_GRID
    svm_gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    # ingestion
    aspect_factor: float = 1.0
    neutral_fallback: bool = True
    merge_validation: bool = False
    eval_split: str = "test"

    def __post_init__(self):
        if not self.features:
            raise ConfigError("select at least one feature family")
        for f in self.features:
            if f not in FEATURE_FAMILIES:
                raise ConfigError(f"unknown feature family {f!r}; choose from {FEATURE_FAMILIES}")
        if self.model not in ("gb", "svm"):
            raise ConfigError(f"model must be 'gb' or 'svm', got {self.model!r}")
        if self.eval_split not in SPLITS:
            raise ConfigError(f"eval_split must be one of {SPLITS}")
        if not (self.aspect_factor > 0 and math.isfinite(self.aspect_factor)):
            raise ConfigError(f"aspect_factor must be positive and finite, got {self.aspect_factor}")
        if (self.svm_c is None) != (self.svm_gamma is None):
            raise ConfigError("set both svm_c and svm_gamma for a fixed SVM, or neither for a grid search")
        if not 0 < self.shrinkage <= 1:
            raise ConfigError(f"shrinkage must be in (0, 1], got {self.shrinkage}")
        if self.max_trees < 1:
            raise ConfigError(f"max_trees must be at least 1, got {self.max_trees}")

    def needs_images(self) -> bool:
        return "bif" in self.features or "point_texture" in self.features


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _items(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


# annotation of a PipelineConfig field -> parser of its config text
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": float,
    "bool": lambda raw: _BOOL_VALUES[raw.lower()],
    "tuple[str, ...]": lambda raw: tuple(_items(raw)),
    "tuple[float, ...]": lambda raw: tuple(float(v) for v in _items(raw)),
}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(PipelineConfig)}


def parse_config(text: str) -> PipelineConfig:
    """Parse the flat key-value config format (`key = value`, '#' comments).

    The keys are the PipelineConfig fields, each parsed by its declared type.
    """
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no} is not 'key = value': {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        values[key] = val
    unknown = sorted(values.keys() - _FIELD_PARSERS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    kwargs = {}
    for key, raw in values.items():
        try:
            kwargs[key] = _FIELD_PARSERS[key](raw)
        except KeyError as exc:  # only the bool parser looks its value up
            raise ConfigError(f"config key {key!r} must be true/false, got {raw.lower()!r}") from exc
        except ValueError as exc:  # only the numeric parsers can fail to convert
            raise ConfigError(f"config key {key!r} has a non-numeric value") from exc
    return PipelineConfig(**kwargs)


def build_feature_spec(config: PipelineConfig) -> FeatureSpec:
    """The FeatureSpec the configured pipeline produces, data-free.

    Families always concatenate in the fixed order distances, axis, bif,
    point_texture regardless of how the config lists them.
    """
    shape_params = (("point_count", POINT_COUNT),)
    blocks = []
    if "distances" in config.features:
        blocks.append(FeatureBlock("distances", POINT_COUNT * (POINT_COUNT - 1) // 2, shape_params))
    if "axis" in config.features:
        blocks.append(FeatureBlock("axis", 2 * POINT_COUNT, shape_params))
    if "bif" in config.features:
        blocks.append(bif_block(build_gabor_bank()))
    if "point_texture" in config.features:
        blocks.append(point_texture_block(POINT_COUNT, TEXTURE_SCALES, TEXTURE_ORIENTATIONS))
    return FeatureSpec(blocks=tuple(blocks))


@dataclass(frozen=True)
class LoadResult:
    """What ``load_dataset`` read; each dict has one key per loaded split."""

    datasets: dict  # split -> LabeledDataset | None
    absent: dict  # split -> tuple of sample ids with no landmarks
    errors: tuple[tuple[str, str], ...]  # (sample id, message) for unreadable entries
    entries: dict  # split -> tuple of its ManifestEntry, in manifest order
    mean: MeanShape | None  # the mean the axis features were measured from
    spec: FeatureSpec


@dataclass(frozen=True)
class _ParsedEntry:
    entry: ManifestEntry
    landmarks: LandmarkSet
    uprighted: NormalizedShape
    image: GrayImage | None


def _ingest_entry(entry: ManifestEntry, base: Path, config: PipelineConfig) -> _ParsedEntry:
    pts_path = base / entry.pts_path
    landmarks = parse_pts(pts_path.read_text(encoding="utf-8"))
    image = None
    points = landmarks.points
    if config.needs_images():
        if not entry.image_path:
            raise ConfigError(
                f"feature set {config.features} needs images but entry {entry.sample_id!r} has no image path"
            )
        image = read_pgm((base / entry.image_path).read_bytes())
        if config.aspect_factor != 1.0:
            points = aspect_correct_points(points, image.width, config.aspect_factor)
            image = aspect_correct(image, config.aspect_factor)
            landmarks = LandmarkSet(points)
    elif config.aspect_factor != 1.0:
        # no image to stay aligned with; plain horizontal rescale of the shape
        points = points.copy()
        with np.errstate(over="ignore"):
            points[:, 0] *= config.aspect_factor
        if not np.all(np.isfinite(points)):
            # the file's points are finite, so the factor alone overflowed them
            raise ConfigError(
                f"aspect_factor {config.aspect_factor:g} makes the landmark coordinates "
                f"of {entry.sample_id!r} overflow"
            )
        landmarks = LandmarkSet(points)
    uprighted = upright(normalize_size(landmarks))
    return _ParsedEntry(entry=entry, landmarks=landmarks, uprighted=uprighted, image=image)


def _extract_features(
    parsed: _ParsedEntry,
    config: PipelineConfig,
    mean: MeanShape | None,
    bank: FilterBank | None,
) -> np.ndarray:
    parts = []
    if "distances" in config.features:
        parts.append(point_distances(parsed.uprighted))
    if "axis" in config.features:
        assert mean is not None
        parts.append(axis_distances(parsed.uprighted, mean))
    if "bif" in config.features:
        assert bank is not None and parsed.image is not None
        crop = align_face(parsed.image, parsed.landmarks)
        parts.append(bif_features(crop, bank))
    if "point_texture" in config.features:
        assert parsed.image is not None
        parts.append(point_texture(parsed.image, parsed.landmarks, TEXTURE_SCALES, TEXTURE_ORIENTATIONS))
    return np.concatenate(parts)


def load_dataset(
    manifest_path: str | Path,
    config: PipelineConfig,
    splits: tuple[str, ...] = SPLITS,
    mean: MeanShape | None = None,
) -> LoadResult:
    """Parse landmark files, run the shape pipeline, extract configured features.

    Only the entries of ``splits`` are read.  ``axis`` features are measured
    from ``mean`` when it is given, else from the mean of the training
    shapes, and then ``splits`` must include ``train``.  Per-entry failures
    (unreadable or malformed files) are collected, not fatal; duplicate ids
    and manifest-level problems raise immediately.
    """
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    base = manifest_path.parent
    spec = build_feature_spec(config)
    bank = build_gabor_bank() if "bif" in config.features else None

    entries = {s: manifest.for_split(s) for s in splits}
    parsed: dict[str, list[_ParsedEntry]] = {s: [] for s in entries}
    absent: dict[str, list[str]] = {s: [] for s in entries}
    errors: list[tuple[str, str]] = []
    for entry in manifest.entries:
        if entry.split not in entries:
            continue
        if entry.absent:
            absent[entry.split].append(entry.sample_id)
            continue
        try:
            parsed[entry.split].append(_ingest_entry(entry, base, config))
        except ConfigError:
            raise
        except Exception as exc:  # per-entry failure: record and continue
            errors.append((entry.sample_id, str(exc)))

    if "axis" not in config.features:
        mean = None
    elif mean is None:
        train_shapes = [p.uprighted for p in parsed.get("train", ())]
        if not train_shapes:
            raise ConfigError("axis features need at least one training shape for the mean")
        mean = mean_shape(train_shapes)

    datasets: dict[str, LabeledDataset | None] = {}
    for split, items in parsed.items():
        if not items:
            datasets[split] = None
            continue
        X = np.stack([_extract_features(p, config, mean, bank) for p in items])
        if X.shape[1] != spec.total_dimension:
            raise DimensionMismatchError(
                f"X has {X.shape[1]} columns but spec declares {spec.total_dimension}"
            )
        y = np.array(
            [label_index(p.entry.label) if p.entry.label else UNLABELED for p in items],
            dtype=np.int64,
        )
        ids = tuple(p.entry.sample_id for p in items)
        datasets[split] = LabeledDataset(X=X, y=y, ids=ids)

    return LoadResult(
        datasets=datasets,
        absent={s: tuple(v) for s, v in absent.items()},
        errors=tuple(errors),
        entries=entries,
        mean=mean,
        spec=spec,
    )


def predict_with_fallback(
    model: GBModel | SVMModel,
    dataset: LabeledDataset | None,
    absent_ids: tuple[str, ...] = (),
    neutral_fallback: bool = True,
) -> dict[str, str]:
    """Labels for every sample; absent-landmark samples get 'Neutral'.

    With the fallback disabled, any absent sample is an error.
    """
    if absent_ids and not neutral_fallback:
        raise ConfigError(
            f"{len(absent_ids)} samples have no landmarks and the Neutral fallback is disabled"
        )
    out: dict[str, str] = {}
    if dataset is not None and len(dataset) > 0:
        if isinstance(model, SVMModel):
            indices = svm_predict_batch(model, dataset.X)
        elif isinstance(model, GBModel):
            indices = gb_predict_batch(model, dataset.X)
        else:
            raise ConfigError(f"cannot predict with object of type {type(model).__name__}")
        ids = dataset.ids if dataset.ids else tuple(str(i) for i in range(len(dataset)))
        for sid, idx in zip(ids, indices):
            out[sid] = CLASSES[int(idx)]
    for sid in absent_ids:
        out[sid] = "Neutral"
    return out
