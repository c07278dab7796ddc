"""Evaluation metrics for classification, regression and clustering."""

from __future__ import annotations

import numpy as np


def _as_arrays(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return y_true, y_pred


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact matches."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    if y_true.size == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))


def precision_recall_f1(y_true, y_pred, positive=1):
    """Binary precision/recall/F1 treating ``positive`` as the positive class."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    tp = float(np.sum((y_pred == positive) & (y_true == positive)))
    fp = float(np.sum((y_pred == positive) & (y_true != positive)))
    fn = float(np.sum((y_pred != positive) & (y_true == positive)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def f1_score(y_true, y_pred, average: str = "binary", positive=1) -> float:
    """F1 score; ``average`` is ``"binary"`` or ``"macro"``."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    if average == "binary":
        return precision_recall_f1(y_true, y_pred, positive=positive)[2]
    if average == "macro":
        labels = np.unique(y_true)
        scores = [precision_recall_f1(y_true, y_pred, positive=lab)[2] for lab in labels]
        return float(np.mean(scores)) if scores else 0.0
    raise ValueError(f"unknown average {average!r}")


def mean_absolute_error(y_true, y_pred) -> float:
    """Mean |error|."""
    y_true, y_pred = _as_arrays(y_true, y_pred)
    return float(np.mean(np.abs(y_true.astype(float) - y_pred.astype(float))))
