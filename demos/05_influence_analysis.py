"""Which landmark pairs drive the boosted model's decisions?

Gradient-boosted trees expose per-feature influence: the squared-error
improvement of every split, summed per feature and normalized.  Mapping
distance-feature influence back through the landmark-pair enumeration ranks
landmark pairs by how much the model relies on them.  With the synthetic
emotion patterns the top pairs connect the mouth, brows and eyes, the regions
the generator actually moves.
"""
import tempfile
from pathlib import Path

from landmark_emotion.evaluation import influence_report
from landmark_emotion.learners import gb_train
from landmark_emotion.pipeline import PipelineConfig, load_dataset
from landmark_emotion.synth import synth_dataset

REGIONS = [
    (range(0, 17), "jaw"),
    (range(17, 27), "brow"),
    (range(27, 36), "nose"),
    (range(36, 48), "eye"),
    (range(48, 68), "mouth"),
]


def region(i):
    return next(name for idx, name in REGIONS if i in idx)


workdir = Path(tempfile.mkdtemp(prefix="landmark_emotion_influence_"))
manifest = synth_dataset(workdir, seed=11, per_class_count=25)
config = PipelineConfig(manifest=str(manifest), features=("distances",))
result = load_dataset(manifest, config)

model = gb_train(result.datasets["train"], result.datasets["validate"], max_trees=40)
report = influence_report(model, result.spec, top_k=12)

print("top landmark-pair influences (share of total split gain):\n")
for rank, (pair, share) in enumerate(zip(report.pairs, report.shares), start=1):
    i, j = pair
    print(f"  {rank:2d}. landmarks ({i:2d}, {j:2d})  {region(i):5s}-{region(j):5s}  share {share:.4f}")

print("\ndistance block carries", f"{100 * report.distance_share:.1f}%",
      "of all influence (only distance features were used)")
