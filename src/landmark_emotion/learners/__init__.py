"""Classifiers: one-vs-one RBF SVM via SMO, and multiclass gradient boosting."""

from .dataset import CLASSES, CLASS_INDEX, UNLABELED, LabeledDataset, label_index
from .gb import (
    GBModel,
    Tree,
    gb_influence,
    gb_predict_batch,
    gb_scores,
    gb_train,
)
from .persist import load_model, save_model
from .svm import (
    DEFAULT_C_GRID,
    DEFAULT_GAMMA_GRID,
    BinaryMachine,
    GridSearchResult,
    Scaler,
    SVMModel,
    fit_scaler,
    grid_search,
    rbf_kernel_matrix,
    smo_solve,
    svm_decision_votes,
    svm_predict_batch,
    svm_train,
)

__all__ = [
    "BinaryMachine",
    "CLASSES",
    "CLASS_INDEX",
    "DEFAULT_C_GRID",
    "DEFAULT_GAMMA_GRID",
    "GBModel",
    "GridSearchResult",
    "LabeledDataset",
    "SVMModel",
    "Scaler",
    "Tree",
    "UNLABELED",
    "fit_scaler",
    "gb_influence",
    "gb_predict_batch",
    "gb_scores",
    "gb_train",
    "grid_search",
    "label_index",
    "load_model",
    "rbf_kernel_matrix",
    "save_model",
    "smo_solve",
    "svm_decision_votes",
    "svm_predict_batch",
    "svm_train",
]
