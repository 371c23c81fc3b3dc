"""Ranking and threshold metrics for the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError

PR_CUTOFF = 0.5  # a score at or above it predicts the positive class


@dataclass
class PrecisionRecall:
    precision: float
    recall: float


@dataclass
class MetricRecord:
    model_id: str
    fold_id: int
    auc: float
    precision: float
    recall: float


def _split_classes(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise MetricError(f"scores {s.shape} and labels {y.shape} must align")
    if not set(np.unique(y)) == {0, 1}:
        raise MetricError(f"labels must contain both classes, got {set(np.unique(y))}")
    return s, y


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of tied values at sorted positions i..j all get (i + j) / 2 + 1."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count 0.5.

    Computed through midranks (Mann-Whitney U), which equals brute-force
    pairwise counting exactly.
    """
    s, y = _split_classes(scores, labels)
    ranks = _midranks(s)
    n_pos = int((y == 1).sum())
    n_neg = len(y) - n_pos
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def precision_recall(scores, labels) -> PrecisionRecall:
    """Precision/recall at `PR_CUTOFF` (predicted positive when score >= PR_CUTOFF).

    With no predicted positives, precision is undefined; precision and recall are
    then both reported as 0.
    """
    s, y = _split_classes(scores, labels)
    predicted = s >= PR_CUTOFF
    tp = int((predicted & (y == 1)).sum())
    fp = int((predicted & (y == 0)).sum())
    fn = int((~predicted & (y == 1)).sum())
    if tp + fp == 0:
        return PrecisionRecall(precision=0.0, recall=0.0)
    return PrecisionRecall(precision=tp / (tp + fp), recall=tp / (tp + fn))
