"""Tests for confusion-matrix metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as ref
from polistance.metrics import EvalReport, MetricsError, f_measure


class TestFMeasure:
    def test_zero_when_both_zero(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_harmonic_mean(self):
        assert f_measure(0.5, 1.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_reported_triple_consistent(self):
        assert f_measure(0.736, 0.975) == pytest.approx(0.839, abs=1e-3)


class TestEvalMetrics:
    def test_perfect_diagonal(self):
        report = EvalReport(("AAP", "BJP", "CONG"), ((10, 0, 0), (0, 10, 0), (0, 0, 10)))
        assert report.precision == (1.0, 1.0, 1.0)
        assert report.recall == (1.0, 1.0, 1.0)
        assert report.f_measures == (1.0, 1.0, 1.0)
        assert report.accuracy == 1.0

    def test_hand_computed_three_by_three(self):
        report = EvalReport(("A", "B", "C"), ((5, 2, 1), (0, 7, 3), (2, 2, 6)))
        # columns: 7, 11, 10; rows: 8, 10, 10; trace 18, total 28
        assert report.precision == pytest.approx((5 / 7, 7 / 11, 6 / 10), abs=1e-12)
        assert report.recall == pytest.approx((5 / 8, 7 / 10, 6 / 10), abs=1e-12)
        assert report.accuracy == pytest.approx(18 / 28, abs=1e-12)
        for p, r, f in zip(report.precision, report.recall, report.f_measures):
            assert f == f_measure(p, r)

    def test_never_predicted_class_scores_zero(self):
        # class 2 present in truth, never predicted, never correct
        report = EvalReport(("A", "B", "C"), ((4, 0, 0), (0, 4, 0), (2, 2, 0)))
        assert report.precision[2] == 0.0
        assert report.recall[2] == 0.0
        assert report.f_measures[2] == 0.0

    def test_accuracy_equals_mean_recall_only_when_balanced(self):
        balanced = EvalReport(("A", "B"), ((8, 2), (3, 7)))
        assert balanced.accuracy == pytest.approx(
            sum(balanced.recall) / 2, abs=1e-12
        )
        skewed = EvalReport(("A", "B"), ((80, 20), (3, 7)))
        assert skewed.accuracy != pytest.approx(sum(skewed.recall) / 2, abs=1e-6)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.lists(st.integers(0, 50), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_scalar_oracle(self, matrix):
        total = sum(sum(row) for row in matrix)
        if total == 0:
            return
        report = EvalReport(("A", "B", "C"), tuple(map(tuple, matrix)))
        for i in range(3):
            col = sum(matrix[r][i] for r in range(3))
            row = sum(matrix[i])
            p = matrix[i][i] / col if col else 0.0
            r = matrix[i][i] / row if row else 0.0
            assert report.precision[i] == p
            assert report.recall[i] == r
            expected_f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert report.f_measures[i] == pytest.approx(expected_f, abs=1e-15)
        assert report.accuracy == sum(matrix[i][i] for i in range(3)) / total
        assert isinstance(report, EvalReport)


@st.composite
def confusions(draw):
    """A square nonnegative integer matrix with a positive total, some of
    whose rows and columns are emptied."""
    size = draw(st.integers(1, 5))
    matrix = np.array(draw(st.lists(st.integers(0, 1000), min_size=size * size,
                                    max_size=size * size)), dtype=np.int64)
    matrix = matrix.reshape(size, size)
    matrix[draw(st.lists(st.integers(0, size - 1), max_size=size)), :] = 0
    matrix[:, draw(st.lists(st.integers(0, size - 1), max_size=size))] = 0
    if matrix.sum() == 0:
        matrix[draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))] = 1
    return matrix


@settings(max_examples=300)
@given(confusions())
def test_scores_equal_the_frozen_loop(matrix):
    """Every score read from the report's matrix equals, float for float,
    the one the old scoring loop stored (tests/metrics_reference.py)."""
    report = EvalReport(tuple(f"C{i}" for i in range(len(matrix))),
                        tuple(tuple(map(int, row)) for row in matrix))
    assert (report.precision, report.recall, report.f_measures,
            report.accuracy) == ref.scores(matrix)


class TestFromPairs:
    def test_row_sums_are_true_counts(self):
        truth = ["AAP", "BJP", "BJP", "CONG", "AAP", "AAP"]
        predicted = ["AAP", "AAP", "BJP", "CONG", "BJP", "AAP"]
        report = EvalReport.from_pairs(truth, predicted)
        assert report.classes == ("AAP", "BJP", "CONG")
        assert report.confusion == ((2, 1, 0), (1, 1, 0), (0, 0, 1))
        assert all(type(cell) is int for row in report.confusion for cell in row)
        assert [sum(row) for row in report.confusion] == [3, 2, 1]
        assert report.total == len(truth)

    def test_classes_default_to_labels_of_either_side(self):
        report = EvalReport.from_pairs(["B"], ["A"])
        assert report.classes == ("A", "B")
        assert report.confusion == ((0, 0), (1, 0))

    def test_explicit_class_order(self):
        # a class that no pair names keeps a zero row and column
        report = EvalReport.from_pairs(["B"], ["A"], classes=["B", "A", "C"])
        assert report.classes == ("B", "A", "C")
        assert report.confusion == ((0, 1, 0), (0, 0, 0), (0, 0, 0))

    def test_unknown_label_rejected(self):
        with pytest.raises(MetricsError, match=r"\('A', 'Z'\) outside classes"):
            EvalReport.from_pairs(["A"], ["Z"], classes=("A", "B"))
        with pytest.raises(MetricsError, match=r"\('Z', 'A'\) outside classes"):
            EvalReport.from_pairs(["Z"], ["A"], classes=("A", "B"))

    def test_length_mismatch(self):
        with pytest.raises(MetricsError, match="equal length"):
            EvalReport.from_pairs(["A"], [])

    @pytest.mark.parametrize("classes", [None, ("A", "B")])
    def test_no_pairs(self, classes):
        with pytest.raises(MetricsError, match="no label pairs"):
            EvalReport.from_pairs([], [], classes)
