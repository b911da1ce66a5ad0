"""Confusion matrices and per-class precision/recall/F evaluation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "EvalReport",
    "MetricsError",
    "f_measure",
]


class MetricsError(ValueError):
    """Raised for label sequences that cannot be tallied into a report."""


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

    @classmethod
    def from_pairs(
        cls,
        truth: Sequence[str],
        predicted: Sequence[str],
        classes: Sequence[str] | None = None,
    ) -> EvalReport:
        """Tally (true, predicted) label pairs into a report.

        Classes default to the sorted union of labels seen on either side.
        """
        if len(truth) != len(predicted):
            raise MetricsError("truth and predicted must have equal length")
        if not truth:
            raise MetricsError("no label pairs to score")
        classes = tuple(sorted(set(truth) | set(predicted)) if classes is None else classes)
        counts = Counter(zip(truth, predicted))
        for t, p in counts:
            if t not in classes or p not in classes:
                raise MetricsError(f"label pair ({t!r}, {p!r}) outside classes {classes}")
        return cls(classes, tuple(tuple(counts[t, p] for p in classes) for t in classes))

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
