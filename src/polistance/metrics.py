"""Confusion matrices and per-class precision/recall/F evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EvalReport",
    "MetricsError",
    "confusion_from_pairs",
    "eval_metrics",
    "f_measure",
]


class MetricsError(ValueError):
    """Raised for malformed confusion matrices or label sequences."""


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean 2PR/(P+R), defined as 0 when P+R = 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class EvalReport:
    """Per-class precision/recall/F plus overall accuracy ("efficiency").

    The confusion matrix is stored row-major as nested tuples, rows = true
    class, columns = predicted class, aligned with ``classes``.
    """

    classes: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f_measures: tuple[float, ...]
    accuracy: float

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.confusion)


def eval_metrics(
    confusion: Sequence[Sequence[int]] | np.ndarray,
    classes: Sequence[str],
) -> EvalReport:
    """Score a square integer confusion matrix (rows true, columns
    predicted) whose rows and columns are ``classes``, in order.

    Precision for a class is its diagonal cell over its column sum (0 for
    an empty column), recall the diagonal over the row sum (0 for an empty
    row), accuracy the trace over the grand total.
    """
    matrix = np.asarray(confusion)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise MetricsError(f"confusion matrix must be square, got shape {matrix.shape}")
    if not np.issubdtype(matrix.dtype, np.integer):
        raise MetricsError(f"confusion matrix must hold integers, got {matrix.dtype}")
    if (matrix < 0).any():
        raise MetricsError("confusion matrix must be nonnegative")
    total = int(matrix.sum())
    if total == 0:
        raise MetricsError("confusion matrix total must be positive")

    size = matrix.shape[0]
    classes = tuple(classes)
    if len(classes) != size:
        raise MetricsError("classes length must match matrix size")

    precision = []
    recall = []
    f_scores = []
    for i in range(size):
        column = int(matrix[:, i].sum())
        row = int(matrix[i, :].sum())
        diag = int(matrix[i, i])
        p = diag / column if column else 0.0
        r = diag / row if row else 0.0
        precision.append(p)
        recall.append(r)
        f_scores.append(f_measure(p, r))

    return EvalReport(
        classes=classes,
        confusion=tuple(tuple(int(v) for v in row) for row in matrix),
        precision=tuple(precision),
        recall=tuple(recall),
        f_measures=tuple(f_scores),
        accuracy=int(np.trace(matrix)) / total,
    )


def confusion_from_pairs(
    truth: Sequence[str],
    predicted: Sequence[str],
    classes: Sequence[str] | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Tally (true, predicted) label pairs into a matrix.

    Classes default to the sorted union of labels seen on either side.
    """
    if len(truth) != len(predicted):
        raise MetricsError("truth and predicted must have equal length")
    if classes is None:
        classes = sorted(set(truth) | set(predicted))
    classes = tuple(classes)
    index = {cls: i for i, cls in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(truth, predicted):
        if t not in index or p not in index:
            raise MetricsError(f"label pair ({t!r}, {p!r}) outside classes {classes}")
        matrix[index[t], index[p]] += 1
    return matrix, classes
