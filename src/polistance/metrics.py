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
    """A confusion matrix and its classes; every score is read from the matrix.

    The matrix is stored row-major as nested tuples, rows = true class,
    columns = predicted class, aligned with ``classes``. Precision for a
    class is its diagonal cell over its column sum (0 for an empty column),
    recall the diagonal over the row sum (0 for an empty row), F their
    ``f_measure``, and accuracy ("efficiency") the trace over the total.
    """

    classes: tuple[str, ...]
    confusion: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.confusion)

    @property
    def _diagonal(self) -> tuple[int, ...]:
        return tuple(row[i] for i, row in enumerate(self.confusion))

    @property
    def precision(self) -> tuple[float, ...]:
        return _ratios(self._diagonal, [sum(column) for column in zip(*self.confusion)])

    @property
    def recall(self) -> tuple[float, ...]:
        return _ratios(self._diagonal, [sum(row) for row in self.confusion])

    @property
    def f_measures(self) -> tuple[float, ...]:
        return tuple(map(f_measure, self.precision, self.recall))

    @property
    def accuracy(self) -> float:
        return sum(self._diagonal) / self.total


def _ratios(parts: Sequence[int], wholes: Sequence[int]) -> tuple[float, ...]:
    return tuple(part / whole if whole else 0.0 for part, whole in zip(parts, wholes))


def eval_metrics(
    confusion: Sequence[Sequence[int]] | np.ndarray,
    classes: Sequence[str],
) -> EvalReport:
    """Check a square integer confusion matrix (rows true, columns
    predicted) whose rows and columns are ``classes``, in order, and hold
    it as an ``EvalReport``."""
    matrix = np.asarray(confusion)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise MetricsError(f"confusion matrix must be square, got shape {matrix.shape}")
    if not np.issubdtype(matrix.dtype, np.integer):
        raise MetricsError(f"confusion matrix must hold integers, got {matrix.dtype}")
    if (matrix < 0).any():
        raise MetricsError("confusion matrix must be nonnegative")
    if int(matrix.sum()) == 0:
        raise MetricsError("confusion matrix total must be positive")
    classes = tuple(classes)
    if len(classes) != matrix.shape[0]:
        raise MetricsError("classes length must match matrix size")
    return EvalReport(classes, tuple(tuple(int(v) for v in row) for row in matrix))


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
