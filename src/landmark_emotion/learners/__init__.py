"""Classifiers: one-vs-one RBF SVM via SMO, and multiclass gradient boosting."""
