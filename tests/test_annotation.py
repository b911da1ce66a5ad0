"""Tests for agreement statistics and majority resolution."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polistance.annotation import (
    CANT_SAY,
    LABELS,
    AgreementStats,
    Annotation,
    AnnotationError,
    DegenerateAgreementError,
    agreement_stats,
    kappa_from_agreement,
    majority_label,
    mean_pairwise_kappa,
    read_annotations,
    resolve_majority,
    write_annotations,
)

# 4x4 pairwise confusion counts between two annotators (rows = annotator A,
# cols = annotator B, label order AAP, BJP, CONG, CANT_SAY)
FOUR_LABEL_MATRIX = [
    [18, 4, 0, 3],
    [6, 76, 1, 21],
    [0, 4, 2, 3],
    [11, 11, 4, 86],
]


def maps_from_matrix(matrix):
    """Expand a pairwise confusion matrix into two user->label maps."""
    labels_a, labels_b = {}, {}
    user = 0
    for i, row in enumerate(matrix):
        for j, count in enumerate(row):
            for _ in range(count):
                labels_a[f"u{user}"] = LABELS[i]
                labels_b[f"u{user}"] = LABELS[j]
                user += 1
    return labels_a, labels_b


class TestKappa:
    def test_stated_agreement_values(self):
        assert kappa_from_agreement(0.732, 0.375) == pytest.approx(0.5712, abs=1e-3)

    def test_chance_agreement_of_one_is_degenerate(self):
        with pytest.raises(DegenerateAgreementError, match="kappa undefined"):
            kappa_from_agreement(1.0, 1.0)

    def test_perfect_agreement(self):
        labels = {"u1": "AAP", "u2": "BJP", "u3": "CONG"}
        stats = agreement_stats(labels, dict(labels))
        assert stats.pr_a == 1.0
        assert stats.kappa == 1.0

    def test_four_label_matrix(self):
        labels_a, labels_b = maps_from_matrix(FOUR_LABEL_MATRIX)
        stats = agreement_stats(labels_a, labels_b)

        # brute-force oracle straight off the counts
        n = sum(sum(row) for row in FOUR_LABEL_MATRIX)
        diag = sum(FOUR_LABEL_MATRIX[i][i] for i in range(4))
        row_sums = [sum(row) for row in FOUR_LABEL_MATRIX]
        col_sums = [sum(row[j] for row in FOUR_LABEL_MATRIX) for j in range(4)]
        expected_num = sum(row_sums[i] * col_sums[i] for i in range(4))

        assert stats.n_items == n == 250
        assert stats.pr_a == diag / n == 182 / 250
        assert stats.pr_e == expected_num / n**2 == 23474 / 62500
        assert stats.kappa == pytest.approx(0.5644, abs=5e-4)

    def test_degenerate_constant_annotators(self):
        constant = {"u1": "BJP", "u2": "BJP"}
        with pytest.raises(DegenerateAgreementError):
            agreement_stats(constant, dict(constant))

    def test_constant_but_disagreeing_is_fine(self):
        stats = agreement_stats({"u1": "BJP", "u2": "BJP"}, {"u1": "AAP", "u2": "AAP"})
        assert stats.pr_a == 0.0

    def test_key_mismatch(self):
        with pytest.raises(AnnotationError):
            agreement_stats({"u1": "AAP"}, {"u2": "AAP"})

    def test_empty(self):
        with pytest.raises(AnnotationError):
            agreement_stats({}, {})

    def test_unknown_label(self):
        with pytest.raises(AnnotationError):
            agreement_stats({"u1": "XYZ"}, {"u1": "AAP"})


label_maps = st.integers(2, 25).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from(LABELS), min_size=n, max_size=n),
        st.lists(st.sampled_from(LABELS), min_size=n, max_size=n),
    )
)


@settings(max_examples=150)
@given(label_maps, st.permutations(list(LABELS)))
def test_label_permutation_invariance(pair, shuffled):
    raw_a, raw_b = pair
    labels_a = {f"u{i}": lab for i, lab in enumerate(raw_a)}
    labels_b = {f"u{i}": lab for i, lab in enumerate(raw_b)}
    mapping = dict(zip(LABELS, shuffled))
    try:
        stats = agreement_stats(labels_a, labels_b)
    except DegenerateAgreementError:
        return
    permuted = agreement_stats(
        {u: mapping[l] for u, l in labels_a.items()},
        {u: mapping[l] for u, l in labels_b.items()},
    )
    assert permuted.pr_a == pytest.approx(stats.pr_a, abs=1e-12)
    assert permuted.pr_e == pytest.approx(stats.pr_e, abs=1e-12)
    assert permuted.kappa == pytest.approx(stats.kappa, abs=1e-12)


@settings(max_examples=150)
@given(label_maps)
def test_kappa_identities(pair):
    raw_a, raw_b = pair
    labels_a = {f"u{i}": lab for i, lab in enumerate(raw_a)}
    labels_b = {f"u{i}": lab for i, lab in enumerate(raw_b)}
    try:
        stats = agreement_stats(labels_a, labels_b)
    except DegenerateAgreementError:
        return
    assert stats.kappa <= stats.pr_a + 1e-12
    assert stats.kappa * (1.0 - stats.pr_e) == pytest.approx(
        stats.pr_a - stats.pr_e, abs=1e-12
    )
    assert isinstance(stats, AgreementStats)


def annotation_rows(assignments):
    """Build Annotation rows from {annotator: {user: pro_label}}; anti fixed."""
    rows = []
    for annotator, labels in assignments.items():
        for user, pro in labels.items():
            rows.append(Annotation(user, annotator, pro, "CANT_SAY"))
    return rows


class TestMeanPairwise:
    def test_two_annotators_single_pair(self):
        a = {"u1": "AAP", "u2": "BJP", "u3": "CONG", "u4": "AAP"}
        b = {"u1": "AAP", "u2": "CONG", "u3": "CONG", "u4": "BJP"}
        rows = annotation_rows({"ann1": a, "ann2": b})
        assert mean_pairwise_kappa(rows, "pro") == agreement_stats(a, b).kappa

    def test_two_identical_one_independent(self):
        a = {"u1": "AAP", "u2": "BJP", "u3": "CONG", "u4": "CANT_SAY"}
        c = {"u1": "BJP", "u2": "BJP", "u3": "AAP", "u4": "CANT_SAY"}
        rows = annotation_rows({"ann1": a, "ann2": dict(a), "ann3": c})
        k_ac = agreement_stats(a, c).kappa
        assert mean_pairwise_kappa(rows, "pro") == pytest.approx(
            (1.0 + k_ac + k_ac) / 3.0, abs=1e-12
        )

    def test_three_annotator_fixture_vs_hand_enumeration(self):
        a = {"u1": "AAP", "u2": "BJP", "u3": "BJP", "u4": "CONG"}
        b = {"u1": "AAP", "u2": "BJP", "u3": "AAP", "u4": "CANT_SAY"}
        c = {"u1": "BJP", "u2": "BJP", "u3": "BJP", "u4": "CONG"}
        rows = annotation_rows({"x": a, "y": b, "z": c})
        expected = (
            agreement_stats(a, b).kappa
            + agreement_stats(a, c).kappa
            + agreement_stats(b, c).kappa
        ) / 3.0
        assert mean_pairwise_kappa(rows, "pro") == pytest.approx(expected, abs=1e-12)

    def test_single_annotator_rejected(self):
        rows = annotation_rows({"only": {"u1": "AAP", "u2": "BJP"}})
        with pytest.raises(AnnotationError):
            mean_pairwise_kappa(rows, "pro")

    def test_ragged_coverage_rejected(self):
        rows = annotation_rows({"a": {"u1": "AAP", "u2": "BJP"}, "b": {"u1": "AAP"}})
        with pytest.raises(AnnotationError):
            mean_pairwise_kappa(rows, "pro")

    def test_bad_dimension(self):
        with pytest.raises(AnnotationError):
            mean_pairwise_kappa([], "sideways")

    def test_user_labeled_twice_by_one_annotator_rejected(self):
        rows = annotation_rows({"a": {"u1": "AAP", "u2": "BJP"},
                                "b": {"u1": "AAP", "u2": "CONG"}})
        rows.append(Annotation("u2", "b", "BJP", "BJP"))
        with pytest.raises(AnnotationError) as caught:
            mean_pairwise_kappa(rows, "pro")
        assert str(caught.value) == "annotator 'b' labeled user 'u2' twice"


class TestMajority:
    def test_two_of_three(self):
        assert majority_label(["BJP", "BJP", "CANT_SAY"]) == "BJP"

    def test_three_way_split(self):
        assert majority_label(["AAP", "BJP", "CONG"]) == CANT_SAY

    def test_even_tie(self):
        assert majority_label(["AAP", "AAP", "BJP", "BJP"]) == CANT_SAY

    def test_no_labels_rejected(self):
        with pytest.raises(AnnotationError, match="no labels to resolve"):
            majority_label([])

    def test_resolution_groups_and_sorts(self):
        rows = [
            Annotation("u2", "a", "BJP", "AAP"),
            Annotation("u1", "a", "AAP", "BJP"),
            Annotation("u2", "b", "BJP", "CONG"),
            Annotation("u1", "b", "CONG", "BJP"),
            Annotation("u2", "c", "CANT_SAY", "CONG"),
            Annotation("u1", "c", "AAP", "CANT_SAY"),
        ]
        resolved = resolve_majority(rows)
        assert [r.user_id for r in resolved] == ["u1", "u2"]
        assert resolved[0].pro == "AAP" and resolved[0].anti == "BJP"
        assert resolved[1].pro == "BJP" and resolved[1].anti == "CONG"

    def test_under_two_annotations_rejected(self):
        with pytest.raises(AnnotationError):
            resolve_majority([Annotation("u1", "a", "AAP", "BJP")])

    def test_duplicate_annotator_rejected(self):
        rows = [
            Annotation("u1", "a", "AAP", "BJP"),
            Annotation("u1", "a", "BJP", "BJP"),
        ]
        with pytest.raises(AnnotationError):
            resolve_majority(rows)

    def test_thousand_user_histogram_matches_counting_oracle(self):
        import numpy as np

        rng = np.random.default_rng(20140407)
        weights = [0.13, 0.45, 0.03, 0.39]  # rough skew of a real campaign set
        rows = []
        truth_votes = {}
        for i in range(1000):
            user = f"u{i:04d}"
            votes = []
            for annotator in ("a", "b", "c"):
                if rng.random() < 0.8:
                    pro = LABELS[rng.choice(4, p=weights)]
                else:
                    pro = LABELS[rng.integers(4)]
                votes.append(pro)
                rows.append(Annotation(user, annotator, pro, "CANT_SAY"))
            truth_votes[user] = votes

        resolved = resolve_majority(rows)
        assert len(resolved) == 1000

        oracle = Counter()
        for votes in truth_votes.values():
            top, count = Counter(votes).most_common(1)[0]
            oracle[top if count * 2 > len(votes) else CANT_SAY] += 1
        assert Counter(r.pro for r in resolved) == oracle
        assert sum(oracle.values()) == 1000


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.integers(0, 30),
        st.lists(st.sampled_from(LABELS), min_size=2, max_size=5),
        min_size=1,
        max_size=10,
    )
)
def test_majority_never_returns_minority_label(user_votes):
    rows = []
    for uid, votes in user_votes.items():
        for k, pro in enumerate(votes):
            rows.append(Annotation(f"u{uid}", f"ann{k}", pro, "CANT_SAY"))
    for labeled in resolve_majority(rows):
        votes = user_votes[int(labeled.user_id[1:])]
        if labeled.pro != CANT_SAY:
            assert 2 * votes.count(labeled.pro) > len(votes)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.csv"
        rows = [
            Annotation("u1", "a", "AAP", "BJP"),
            Annotation("u2", "b", "CANT_SAY", "CANT_SAY"),
        ]
        write_annotations(path, rows)
        assert read_annotations(path) == rows

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        path = tmp_path / "ann.csv"
        path.write_bytes(b"\xef\xbb\xbfuser_id,annotator_id,pro,anti\nu1,a,AAP,BJP\n")
        assert read_annotations(path) == [Annotation("u1", "a", "AAP", "BJP")]

    def test_header_required(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("who,when,pro,anti\nu1,a,AAP,BJP\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="header"):
            read_annotations(path)

    def test_unknown_label_with_line_number(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "user_id,annotator_id,pro,anti\nu1,a,AAP,BJP\nu2,a,NOTA,BJP\n",
            encoding="utf-8",
        )
        with pytest.raises(AnnotationError, match=":3:"):
            read_annotations(path)

    def test_line_number_counts_a_quoted_newline(self, tmp_path):
        # the first record spans lines 2 and 3, so the bad row is on line 4
        path = tmp_path / "ml.csv"
        path.write_text(
            'user_id,annotator_id,pro,anti\n"a\nb",a1,AAP,BJP\nc,a1,XXX,BJP\n',
            encoding="utf-8",
        )
        with pytest.raises(AnnotationError) as caught:
            read_annotations(path)
        assert str(caught.value) == f"{path}:4: unknown pro label 'XXX'"

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "user_id,annotator_id,pro,anti\nu1,a,AAP,BJP\nu1,a,BJP,BJP\n",
            encoding="utf-8",
        )
        with pytest.raises(AnnotationError, match="duplicate"):
            read_annotations(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AnnotationError):
            read_annotations(tmp_path / "none.csv")

    def test_empty_file_rejected_by_name(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_bytes(b"")
        with pytest.raises(AnnotationError) as caught:
            read_annotations(path)
        assert str(caught.value) == f"{path}: empty annotations file"

    def test_blank_row_skipped(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("user_id,annotator_id,pro,anti\nu1,a,AAP,BJP\n\nu2,a,BJP,CONG\n",
                        encoding="utf-8")
        assert read_annotations(path) == [Annotation("u1", "a", "AAP", "BJP"),
                                          Annotation("u2", "a", "BJP", "CONG")]

    def test_wrong_field_count_rejected_by_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("user_id,annotator_id,pro,anti\nu1,a,AAP,BJP\n\nu2,a,BJP\n",
                        encoding="utf-8")
        with pytest.raises(AnnotationError) as caught:
            read_annotations(path)
        assert str(caught.value) == f"{path}:4: expected 4 fields, got 3"

    def test_non_utf8_file_rejected_by_name(self, tmp_path):
        path = tmp_path / "ann.csv"
        text = "user_id,annotator_id,pro,anti\nJosé,a,AAP,BJP\n"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(AnnotationError) as caught:
            read_annotations(path)
        assert str(caught.value).startswith(f"{path}: not UTF-8 text")

    def test_field_over_the_csv_limit_rejected_by_name_and_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text('user_id,annotator_id,pro,anti\n"' + "x" * 200_000 + '",a,AAP,BJP\n',
                        encoding="utf-8")
        with pytest.raises(AnnotationError) as caught:
            read_annotations(path)
        assert str(caught.value).startswith(f"{path}:2: field larger than field limit")
