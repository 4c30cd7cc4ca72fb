"""End to end: synthesize a dataset, train both classifiers, evaluate.

Generates a seeded 7-class landmark dataset, extracts distance features,
trains the gradient-boosting model (tree count tuned on the validation
split) and the SVM (C and gamma tuned by validation grid search), and prints
confusion matrices with overall and per-class accuracy.
"""
import tempfile

from landmark_emotion.evaluation import accuracy_line, confusion, per_class_text
from landmark_emotion.learners.dataset import CLASSES
from landmark_emotion.learners.gb import gb_predict_batch, gb_train
from landmark_emotion.learners.svm import fit_scaler, grid_search, svm_predict_batch, svm_train
from landmark_emotion.pipeline import PipelineConfig, load_dataset
from landmark_emotion.synth import synth_dataset

with tempfile.TemporaryDirectory(prefix="landmark_emotion_demo_") as workdir:
    manifest = synth_dataset(workdir, seed=7, per_class_count=20)
    config = PipelineConfig(manifest=str(manifest), features=("distances",))
    result = load_dataset(manifest, config)
train, val, test = (result.datasets[s] for s in ("train", "validate", "test"))
print(f"splits: {len(train)} train / {len(val)} validate / {len(test)} test,",
      f"{train.dimension} features each\n")

# --- gradient boosting ----------------------------------------------------------
gb = gb_train(train, val, shrinkage=0.1, max_trees=40)
print(f"gradient boosting: kept {gb.tree_count} trees per class",
      f"(validation accuracy {100 * gb.val_accuracy[gb.tree_count - 1]:.1f}%)")
gb_pred = gb_predict_batch(gb, test.X)
cm = confusion([CLASSES[i] for i in gb_pred], [CLASSES[i] for i in test.y])
print(cm.to_text())
print(accuracy_line(cm))
print(per_class_text(cm), "\n")

# --- SVM with grid search ---------------------------------------------------------
search = grid_search(train, val, C_grid=[2.0**e for e in range(-5, 16, 4)],
                     gamma_grid=[2.0**e for e in range(-15, 4, 4)])
print(f"svm grid search picked C={search.C:g}, gamma={search.gamma:g}",
      f"(validation accuracy {100 * search.best_accuracy:.1f}%)")
svm = svm_train(train, search.C, search.gamma, scaler=fit_scaler(train))
svm_pred = svm_predict_batch(svm, test.X)
cm = confusion([CLASSES[i] for i in svm_pred], [CLASSES[i] for i in test.y])
print(cm.to_text())
print(accuracy_line(cm))
print(per_class_text(cm))
