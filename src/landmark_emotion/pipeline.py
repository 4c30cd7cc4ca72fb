"""Dataset ingestion and the end-to-end feature pipeline.

A manifest CSV (`id,pts_path,image_path,label,split`) names every sample.
An empty pts_path marks a sample whose landmarks are ABSENT (the face
detector failed); those are carried separately so prediction can apply the
Neutral fallback.  Features are extracted per split, and only for the
splits a command asks for.  Anything fit on data (the mean shape, the SVM
scaler) uses the training split only and is stored in the model, so a
prediction reads nothing outside the split it predicts.

Per entry, ``load_dataset`` reads the ``.pts`` file (and the image, when the
features need one) and parses it, so a bad file skips only its own entry.
Per split, the landmark steps run once over the stack of its parsed faces:
``normalize_size``, ``upright``, ``point_distances`` and ``axis_distances``,
and ``mean_shape`` over the training stack.  When a face of the stack fails
a shape check, the shape steps run again face by face, so each failing entry
is skipped with the message it gets alone.  The texture families then run
entry by entry on the faces that passed, and an entry whose image families
fail (say, its eye centres coincide in pixels) is skipped with its shape
row.  Skipped entries are reported in manifest order.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import LandmarkEmotionError
from .features.extract import (
    POINT_TEXTURE_ORIENTATIONS,
    POINT_TEXTURE_SCALES,
    axis_distances,
    bif_block,
    bif_features,
    point_distances,
    point_texture,
    point_texture_block,
)
from .features.gabor import FilterBank, build_gabor_bank
from .features.image import GrayImage, align_face, read_pgm
from .features.spec import FeatureBlock, FeatureSpec
from .learners.dataset import CLASSES, UNLABELED, LabeledDataset, label_index
from .learners.gb import DEFAULT_MAX_TREES, DEFAULT_SHRINKAGE, GBModel, check_gb_parameters, gb_predict_batch
from .learners.svm import DEFAULT_C_GRID, DEFAULT_GAMMA_GRID, SVMModel, check_svm_parameters, svm_predict_batch
from .shapes import (
    POINT_COUNT,
    LandmarkSet,
    mean_shape,
    normalize_size,
    parse_pts,
    upright,
)

SPLITS = ("train", "validate", "test")
FEATURE_FAMILIES = ("distances", "axis", "bif", "point_texture")


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
            if not e.sample_id or any(c in e.sample_id for c in "\t\n\r"):  # predict prints one "id<TAB>label" line each
                raise LandmarkEmotionError(f"sample id {e.sample_id!r} is empty or holds a tab or line break")
            if e.sample_id in seen:
                raise LandmarkEmotionError(f"duplicate sample id {e.sample_id!r} in manifest")
            seen.add(e.sample_id)
            if e.split not in SPLITS:
                raise LandmarkEmotionError(f"entry {e.sample_id!r} has unknown split {e.split!r}")
            if e.label and e.label not in CLASSES:
                raise LandmarkEmotionError(f"entry {e.sample_id!r} has unknown label {e.label!r}")
            if "\0" in e.pts_path + e.image_path:  # no file system accepts it in a name
                raise LandmarkEmotionError(f"entry {e.sample_id!r} has a NUL character in a file path")

    def for_split(self, split: str) -> tuple[ManifestEntry, ...]:
        if split not in SPLITS:
            raise LandmarkEmotionError(f"unknown split {split!r}")
        return tuple(e for e in self.entries if e.split == split)


MANIFEST_HEADER = ["id", "pts_path", "image_path", "label", "split"]


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, less one leading BOM; any other encoding is a LandmarkEmotionError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise LandmarkEmotionError(f"{path} is not UTF-8 text") from exc


def read_manifest(path: str | Path) -> DatasetManifest:
    reader = csv.reader(io.StringIO(read_utf8(path)))
    rows = list(reader)
    if not rows or rows[0] != MANIFEST_HEADER:
        raise LandmarkEmotionError(f"manifest must start with header {','.join(MANIFEST_HEADER)!r}")
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise LandmarkEmotionError(f"manifest line {line_no} has {len(row)} fields, expected 5")
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
    max_trees: int = DEFAULT_MAX_TREES
    # SVM: fixed (C, gamma) when both are given, grid search when neither is
    svm_c: float | None = None
    svm_gamma: float | None = None
    svm_c_grid: tuple[float, ...] = DEFAULT_C_GRID
    svm_gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    eval_split: str = "test"

    def __post_init__(self):
        if not self.features:
            raise LandmarkEmotionError("select at least one feature family")
        for f in self.features:
            if f not in FEATURE_FAMILIES:
                raise LandmarkEmotionError(f"unknown feature family {f!r}; choose from {FEATURE_FAMILIES}")
        if self.model not in ("gb", "svm"):
            raise LandmarkEmotionError(f"model must be 'gb' or 'svm', got {self.model!r}")
        if self.eval_split not in SPLITS:
            raise LandmarkEmotionError(f"eval_split must be one of {SPLITS}")
        if (self.svm_c is None) != (self.svm_gamma is None):
            raise LandmarkEmotionError("set both svm_c and svm_gamma for a fixed SVM, or neither for a grid search")
        check_svm_parameters(self.svm_c_grid, self.svm_gamma_grid)
        if self.svm_c is not None:
            check_svm_parameters([self.svm_c], [self.svm_gamma])
        check_gb_parameters(self.shrinkage, self.max_trees)

    def needs_images(self) -> bool:
        return "bif" in self.features or "point_texture" in self.features


def _items(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


# annotation of a PipelineConfig field -> parser of its config text
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": float,
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
            raise LandmarkEmotionError(f"config line {line_no} is not 'key = value': {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise LandmarkEmotionError(f"duplicate config key {key!r}")
        values[key] = val
    unknown = sorted(values.keys() - _FIELD_PARSERS.keys())
    if unknown:
        raise LandmarkEmotionError(f"unknown config keys: {unknown}")
    kwargs = {}
    for key, raw in values.items():
        try:
            kwargs[key] = _FIELD_PARSERS[key](raw)
        except ValueError as exc:  # only the numeric parsers can fail to convert
            try:
                float(raw)  # a number that the parser rejects is a float given for an int key
                problem = f"needs an integer, got {raw!r}"
            except ValueError:
                problem = f"has a non-numeric value {raw!r}"
            raise LandmarkEmotionError(f"config key {key!r} {problem}") from exc
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
        blocks.append(point_texture_block(POINT_COUNT, POINT_TEXTURE_SCALES, POINT_TEXTURE_ORIENTATIONS))
    return FeatureSpec(blocks=tuple(blocks))


@dataclass(frozen=True)
class LoadResult:
    """What ``load_dataset`` read; each dict has one key per loaded split."""

    datasets: dict  # split -> LabeledDataset | None
    absent: dict  # split -> tuple of sample ids with no landmarks
    errors: tuple[tuple[str, str], ...]  # (sample id, message) for unreadable entries
    entries: dict  # split -> tuple of its ManifestEntry, in manifest order
    mean: np.ndarray | None  # (68, 2) points the axis features were measured from
    spec: FeatureSpec


@dataclass(frozen=True)
class _ParsedEntry:
    entry: ManifestEntry
    landmarks: LandmarkSet
    image: GrayImage | None


def _read_entry(entry: ManifestEntry, base: Path, config: PipelineConfig) -> _ParsedEntry:
    landmarks = parse_pts(read_utf8(base / entry.pts_path))
    image = read_pgm((base / entry.image_path).read_bytes()) if config.needs_images() else None
    return _ParsedEntry(entry=entry, landmarks=landmarks, image=image)


def _upright_split(
    items: list[_ParsedEntry], failed: dict[str, str]
) -> tuple[list[_ParsedEntry], np.ndarray]:
    """The entries whose faces normalize and upright, and their (m, 68, 2) shapes.

    The steps run once over the stack of the split's faces.  When a face has
    another point count or fails a check, they run face by face instead, and
    ``failed`` gets each failing entry's message, the one it gets alone.
    """
    if items and all(p.landmarks.point_count == POINT_COUNT for p in items):
        try:
            return items, upright(normalize_size(np.stack([p.landmarks.points for p in items])))
        except LandmarkEmotionError:
            pass
    kept, shapes = [], []
    for p in items:
        try:
            shapes.append(upright(normalize_size(p.landmarks.points)))
        except LandmarkEmotionError as exc:
            failed[p.entry.sample_id] = str(exc)
            continue
        kept.append(p)
    return kept, np.array(shapes).reshape(-1, POINT_COUNT, 2)


def _texture_split(
    items: list[_ParsedEntry],
    shapes: np.ndarray,
    config: PipelineConfig,
    bank: FilterBank | None,
    failed: dict[str, str],
) -> tuple[list[_ParsedEntry], np.ndarray, np.ndarray]:
    """The entries whose image families extract, their shapes, and their texture rows.

    The families run entry by entry; ``failed`` gets each failing entry's message.
    """
    kept, rows = [], []
    for i, p in enumerate(items):
        parts = []
        try:
            if "bif" in config.features:
                assert bank is not None
                parts.append(bif_features(align_face(p.image, p.landmarks), bank))
            if "point_texture" in config.features:
                parts.append(point_texture(p.image, p.landmarks))
        except LandmarkEmotionError as exc:
            failed[p.entry.sample_id] = str(exc)
            continue
        kept.append(i)
        rows.append(np.concatenate(parts))
    return [items[i] for i in kept], shapes[kept], np.array(rows)


def _extract_features(
    shapes: np.ndarray, texture: np.ndarray | None, config: PipelineConfig, mean: np.ndarray | None
) -> np.ndarray:
    """One row per face: the shape families over the whole stack, then the texture rows."""
    parts = []
    if "distances" in config.features:
        parts.append(point_distances(shapes))
    if "axis" in config.features:
        assert mean is not None
        parts.append(axis_distances(shapes, mean))
    if texture is not None:
        parts.append(texture)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def load_dataset(
    manifest_path: str | Path,
    config: PipelineConfig,
    splits: tuple[str, ...] = SPLITS,
    mean: np.ndarray | None = None,
) -> LoadResult:
    """Parse landmark files, run the shape pipeline, extract configured features.

    The manifest is ``manifest_path``; ``config.manifest`` is not read.  Only
    the entries of ``splits`` are read.  ``axis`` features are measured
    from ``mean`` when it is given, else from the mean of the training
    shapes, and then ``splits`` must include ``train``.  Per-entry failures
    (unreadable or malformed files, degenerate shapes) are collected in
    manifest order, not fatal.  Duplicate ids, other manifest-level problems
    and an image-less entry when the features need images raise before any
    landmark or image file is read.
    """
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    base = manifest_path.parent
    spec = build_feature_spec(config)
    bank = build_gabor_bank() if "bif" in config.features else None

    entries = {s: manifest.for_split(s) for s in splits}
    if config.needs_images():
        for e in manifest.entries:
            if e.split in entries and not e.absent and not e.image_path:
                raise LandmarkEmotionError(
                    f"feature set {config.features} needs images but entry {e.sample_id!r} has no image path"
                )
    parsed: dict[str, list[_ParsedEntry]] = {s: [] for s in entries}
    absent: dict[str, list[str]] = {s: [] for s in entries}
    failed: dict[str, str] = {}  # sample id -> why its entry was skipped
    for entry in manifest.entries:
        if entry.split not in entries:
            continue
        if entry.absent:
            absent[entry.split].append(entry.sample_id)
            continue
        try:
            parsed[entry.split].append(_read_entry(entry, base, config))
        except (LandmarkEmotionError, OSError) as exc:  # a bad file skips its entry
            failed[entry.sample_id] = str(exc)
    shapes, texture = {}, {}
    for split, items in parsed.items():
        items, shapes[split] = _upright_split(items, failed)
        if config.needs_images():  # only on the faces that passed the shape checks
            items, shapes[split], texture[split] = _texture_split(items, shapes[split], config, bank, failed)
        parsed[split] = items

    if "axis" not in config.features:
        mean = None
    elif mean is None:
        if len(shapes.get("train", ())) == 0:
            raise LandmarkEmotionError("axis features need at least one training shape for the mean")
        mean = mean_shape(shapes["train"])

    datasets: dict[str, LabeledDataset | None] = {}
    for split, items in parsed.items():
        if not items:
            datasets[split] = None
            continue
        X = _extract_features(shapes[split], texture.get(split), config, mean)
        if X.shape[1] != spec.total_dimension:
            raise LandmarkEmotionError(
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
        errors=tuple((e.sample_id, failed[e.sample_id]) for e in manifest.entries if e.sample_id in failed),
        entries=entries,
        mean=mean,
        spec=spec,
    )


def predict_with_fallback(
    model: GBModel | SVMModel,
    dataset: LabeledDataset | None,
    absent_ids: tuple[str, ...] = (),
) -> dict[str, str]:
    """Labels for every sample; absent-landmark samples get 'Neutral'."""
    out: dict[str, str] = {}
    if dataset is not None and len(dataset) > 0:
        if isinstance(model, SVMModel):
            indices = svm_predict_batch(model, dataset.X)
        elif isinstance(model, GBModel):
            indices = gb_predict_batch(model, dataset.X)
        else:
            raise LandmarkEmotionError(f"cannot predict with object of type {type(model).__name__}")
        ids = dataset.ids if dataset.ids else tuple(str(i) for i in range(len(dataset)))
        for sid, idx in zip(ids, indices):
            out[sid] = CLASSES[int(idx)]
    for sid in absent_ids:
        out[sid] = "Neutral"
    return out
