"""Tests for forest training, prediction, balancing, and cross-validation."""

import multiprocessing
import os
import threading
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_reference
from forest_dump import forest_digest, forest_to_dict
from polistance import forest
from polistance.forest import (
    CV_MODES,
    Forest,
    ForestError,
    Tree,
    _best_splits,
    _dense_ranks,
    _split_predictions,
    _splits,
    _StreamCache,
    balance_classes,
    cross_validate,
    predict_many,
    train_forest,
)
from polistance.metrics import confusion_from_pairs


# Heavy ties: few distinct values. 1 + 2**-52 and 1 + 2**-51 are adjacent
# floats whose midpoint rounds up to the larger one.
SPLIT_VALUES = (0.0, 1.0, 2.0, 3.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51)


def make_blobs(rng_seed=7, per_class=30, spread=1.0, separation=8.0):
    """Three well-separated Gaussian blobs in 4 dimensions."""
    rng = np.random.default_rng(rng_seed)
    means = {
        "AAP": np.array([0.0, 0.0, 0.0, 0.0]),
        "BJP": np.array([separation, 0.0, separation, 0.0]),
        "CONG": np.array([0.0, separation, 0.0, separation]),
    }
    rows, labels = [], []
    for cls, mean in means.items():
        rows.append(rng.normal(mean, spread, size=(per_class, 4)))
        labels.extend([cls] * per_class)
    return np.vstack(rows), labels, means


def nearest_centroid_accuracy(rows, labels, means):
    """Separability oracle: classify by nearest blob mean."""
    classes = list(means)
    centroids = np.stack([means[c] for c in classes])
    hits = 0
    for row, label in zip(rows, labels):
        nearest = classes[int(np.argmin(((centroids - row) ** 2).sum(axis=1)))]
        hits += nearest == label
    return hits / len(labels)


def sparse_wide():
    """120 x 90 Poisson counts, about 73% zeros, scaled per column."""
    rng = np.random.default_rng(2024)
    labels = ["AAP"] * 40 + ["BJP"] * 40 + ["CONG"] * 40
    rates = rng.uniform(0.05, 0.6, size=(3, 90))
    counts = np.vstack([rng.poisson(rates[c], size=(40, 90)) for c in range(3)])
    return counts * rng.uniform(0.5, 2.0, size=90), labels


def tall_narrow():
    """600 x 11: six Gaussian, four small-integer and one constant column."""
    rng = np.random.default_rng(611)
    rows = np.column_stack([
        rng.normal(size=(600, 6)),
        rng.integers(0, 5, size=(600, 4)).astype(float),
        np.zeros(600),
    ])
    score = rows[:, 0] + 0.5 * rows[:, 6] + rng.normal(0.0, 1.0, size=600)
    labels = ["BJP" if s > 1.0 else "INC" for s in score]
    return rows, labels


def walk_tree(tree, rows):
    """Reference: one tree's class index for each row, walked on its own."""
    position = np.zeros(len(rows), dtype=np.int64)
    active = tree.feature[position] >= 0
    while active.any():
        at = position[active]
        values = rows[active, tree.feature[at]]
        position[active] = np.where(
            values <= tree.threshold[at], tree.left[at], tree.right[at]
        )
        active = tree.feature[position] >= 0
    return tree.leaf_class[position]


def plurality_of_walks(forest, rows):
    """Reference vote: each tree walked alone, ties to the smallest class."""
    walks = [walk_tree(tree, rows) for tree in forest.trees]
    predicted = []
    for r in range(len(rows)):
        counts = [sum(int(walk[r]) == c for walk in walks)
                  for c in range(len(forest.classes))]
        predicted.append(forest.classes[counts.index(max(counts))])
    return predicted


def leaf_tree(class_index):
    return Tree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        leaf_class=np.array([class_index]),
    )


class TestTrain:
    def test_single_class_constant_predictor(self):
        rows = np.arange(20, dtype=float).reshape(10, 2)
        forest = train_forest(rows, ["BJP"] * 10, n_trees=5)
        assert predict_many(forest, rows) == ["BJP"] * 10

    def test_separable_blobs_memorized(self):
        rows, labels, means = make_blobs()
        assert nearest_centroid_accuracy(rows, labels, means) == 1.0
        forest = train_forest(rows, labels, n_trees=100, rng_seed=3)
        assert predict_many(forest, rows) == labels

    def test_same_seed_same_forest(self):
        rows, labels, _ = make_blobs()
        first = train_forest(rows, labels, n_trees=20, rng_seed=11)
        second = train_forest(rows, labels, n_trees=20, rng_seed=11)
        assert forest_to_dict(first, 11) == forest_to_dict(second, 11)
        assert predict_many(first, rows) == predict_many(second, rows)

    def test_repeat_runs_match_golden_digest(self):
        rows, labels, _ = make_blobs(per_class=15)
        first = train_forest(rows, labels, n_trees=16, rng_seed=5)
        second = train_forest(rows, labels, n_trees=16, rng_seed=5)
        assert forest_to_dict(first, 5) == forest_to_dict(second, 5)
        assert forest_digest(first, 5) == (
            "7c9c800a800f174f8990c7762112b9b0dbdccada159effecdcee108ae88032bf"
        )

    @pytest.mark.parametrize("make, seed, digest", [
        (sparse_wide, 3,
         "06b9b06f17d02ac44cdb77ed1ecfb6a952b309c99089dc52cb58070198caeb75"),
        (tall_narrow, 4,
         "cd1e44ecb62a2746a98f67018c494cd3b41618591f418c03ea7633fea0628b6a"),
    ], ids=["sparse_wide", "tall_narrow"])
    def test_golden_forest_digest(self, make, seed, digest):
        rows, labels = make()
        forest = train_forest(rows, labels, n_trees=20, rng_seed=seed)
        assert forest_digest(forest, seed) == digest

    def test_errors(self):
        with pytest.raises(ForestError):
            train_forest(np.zeros((0, 3)), [])
        with pytest.raises(ForestError):
            train_forest(np.zeros((2, 3)), ["A"])
        with pytest.raises(ForestError):
            train_forest(np.zeros((2, 0)), ["A", "B"])

    def test_param_validation(self):
        rows, labels, _ = make_blobs(per_class=10)
        with pytest.raises(ForestError, match="n_trees must be >= 1"):
            train_forest(rows, labels, n_trees=0)

    def test_split_features_in_range(self):
        rows, labels, _ = make_blobs(per_class=10)
        forest = train_forest(rows, labels, n_trees=10, rng_seed=2)
        assert len(forest.trees) == 10
        for tree in forest.trees:
            internal = tree.feature[tree.feature >= 0]
            assert internal.size == 0 or internal.max() < forest.n_features

    @pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (1e308, 1.7e308)],
                             ids=["infinities", "sum_overflows"])
    def test_midpoint_that_is_not_finite_still_separates(self, lo, hi):
        # (lo + hi) / 2 is nan or inf here; the split must still send lo left
        rows = [[lo]] * 10 + [[hi]] * 10
        labels = ["a"] * 10 + ["b"] * 10
        forest = train_forest(rows, labels, n_trees=3)
        assert predict_many(forest, rows) == labels

    def test_scaling_a_column_changes_no_prediction(self):
        rows, labels, _ = make_blobs(per_class=20, rng_seed=9)
        test_rows = rows[::3].copy()
        baseline = predict_many(
            train_forest(rows, labels, n_trees=30, rng_seed=4), test_rows
        )
        scaled = rows.copy()
        scaled[:, 2] *= 4.0  # power of two: exact, order preserved
        scaled_test = test_rows.copy()
        scaled_test[:, 2] *= 4.0
        rescored = predict_many(
            train_forest(scaled, labels, n_trees=30, rng_seed=4), scaled_test
        )
        assert rescored == baseline


# Before NaN was rejected, the cut between the two NaNs had a NaN threshold
# that sent every row right, so training never ended. Trees have no depth
# cap, so such a regression would hang here; the CI job's timeout-minutes
# turns the hang into a failure.
NAN_ROWS = [[0.0], [1.0], [np.nan], [np.nan], [2.0], [3.0]]
NAN_LABELS = ["a", "a", "b", "b", "b", "a"]


class TestNaN:
    @pytest.mark.parametrize("call", [
        lambda: train_forest(NAN_ROWS, NAN_LABELS, n_trees=2),
        lambda: cross_validate(NAN_ROWS, NAN_LABELS, n_trees=2, k=2),
        lambda: balance_classes(NAN_ROWS, NAN_LABELS),
        lambda: predict_many(
            train_forest([[0.0], [1.0]], ["a", "b"], n_trees=2), NAN_ROWS
        ),
    ], ids=["train_forest", "cross_validate", "balance_classes", "predict_many"])
    def test_rows_with_nan_are_rejected(self, call):
        with pytest.raises(ForestError, match="rows contain NaN"):
            call()


@st.composite
def random_forests(draw):
    """1-6 random trees, their node arrays in split order, and 0-6 rows.

    Values and thresholds come from SPLIT_VALUES, so rows often sit on a
    threshold, and with 1-3 classes and few trees votes often tie.
    """
    n_classes = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    class_index = st.integers(0, n_classes - 1)
    trees = []
    for _ in range(draw(st.integers(1, 6))):
        feature, threshold, left, right = [-1], [0.0], [-1], [-1]
        leaf_class = [draw(class_index)]
        for _ in range(draw(st.integers(0, 6))):
            node = draw(st.sampled_from([i for i, f in enumerate(feature) if f < 0]))
            feature[node] = draw(st.integers(0, d - 1))
            threshold[node] = draw(st.sampled_from(SPLIT_VALUES))
            left[node], right[node], leaf_class[node] = len(feature), len(feature) + 1, -1
            feature += (-1, -1)
            threshold += (0.0, 0.0)
            left += (-1, -1)
            right += (-1, -1)
            leaf_class += (draw(class_index), draw(class_index))
        trees.append(Tree(
            feature=np.array(feature), threshold=np.array(threshold),
            left=np.array(left), right=np.array(right),
            leaf_class=np.array(leaf_class),
        ))
    rows = draw(st.lists(st.lists(st.sampled_from(SPLIT_VALUES), min_size=d, max_size=d),
                         max_size=6))
    forest = Forest(classes=("AAP", "BJP", "CONG")[:n_classes], n_features=d,
                    trees=tuple(trees))
    return forest, np.array(rows, dtype=np.float64).reshape(len(rows), d)


class TestPredict:
    def test_three_leaf_trees_plurality(self):
        forest = Forest(
            classes=("AAP", "BJP"),
            n_features=2,
            trees=(leaf_tree(0), leaf_tree(0), leaf_tree(1)),
        )
        assert predict_many(forest, [[0.0, 0.0]]) == ["AAP"]

    def test_tie_goes_to_lexicographic_smallest(self):
        forest = Forest(
            classes=("AAP", "BJP"),
            n_features=1,
            trees=(leaf_tree(1), leaf_tree(0)),
        )
        assert predict_many(forest, [[0.0]]) == ["AAP"]

    def test_single_tree_forest(self):
        rows, labels, _ = make_blobs(per_class=10)
        forest = train_forest(rows, labels, n_trees=1, rng_seed=0)
        idx = walk_tree(forest.trees[0], rows)
        assert predict_many(forest, rows) == [forest.classes[i] for i in idx]

    def test_zero_rows(self):
        rows, labels, _ = make_blobs(per_class=10)
        forest = train_forest(rows, labels, n_trees=3)
        assert predict_many(forest, np.zeros((0, 4))) == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_plurality_of_tree_walks(self, data):
        forest, rows = data.draw(random_forests())
        assert predict_many(forest, rows) == plurality_of_walks(forest, rows)

    def test_dimension_mismatch(self):
        rows, labels, _ = make_blobs(per_class=10)
        forest = train_forest(rows, labels, n_trees=2)
        with pytest.raises(ForestError):
            predict_many(forest, [[1.0, 2.0]])


class TestBalance:
    def test_skewed_counts_to_smallest(self):
        labels = ["AAP"] * 133 + ["BJP"] * 447 + ["CONG"] * 33
        rows = np.arange(len(labels), dtype=float).reshape(-1, 1)
        out_rows, out_labels = balance_classes(rows, labels, rng_seed=1)
        assert Counter(out_labels) == {"AAP": 33, "BJP": 33, "CONG": 33}
        assert len(out_rows) == 99

    def test_anti_skew_counts(self):
        labels = ["AAP"] * 205 + ["BJP"] * 85 + ["CONG"] * 135
        _, out_labels = balance_classes(
            np.zeros((len(labels), 1)), labels, rng_seed=1
        )
        assert len(out_labels) == 255

    def test_already_balanced_is_identity(self):
        labels = ["A", "B", "A", "B"]
        rows = np.arange(8, dtype=float).reshape(4, 2)
        out_rows, out_labels = balance_classes(rows, labels, rng_seed=9)
        assert np.array_equal(out_rows, rows)
        assert out_labels == labels

    def test_original_order_preserved(self):
        labels = ["B", "A", "B", "A", "B", "B"]
        rows = np.arange(6, dtype=float).reshape(6, 1)
        out_rows, out_labels = balance_classes(rows, labels, rng_seed=3)
        kept = [int(v) for v in out_rows[:, 0]]
        assert kept == sorted(kept)
        assert Counter(out_labels) == {"A": 2, "B": 2}

    def test_deterministic(self):
        labels = ["A"] * 10 + ["B"] * 4
        rows = np.arange(14, dtype=float).reshape(14, 1)
        first = balance_classes(rows, labels, rng_seed=7)
        second = balance_classes(rows, labels, rng_seed=7)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]


class TestStratifiedFolds:
    def test_proportions_deviate_below_one_item(self):
        labels = ["A"] * 47 + ["B"] * 23 + ["C"] * 10
        folds = [test for _, test in _splits(labels, 10, "kfold", 0)]
        assert sorted(i for fold in folds for i in fold) == list(range(80))
        for fold in folds:
            counts = Counter(labels[i] for i in fold)
            for cls, total in (("A", 47), ("B", 23), ("C", 10)):
                assert abs(counts[cls] - total / 10) < 1.0

    def test_small_class_rejected(self):
        with pytest.raises(ForestError):
            _splits(["A"] * 20 + ["B"] * 3, 10, "kfold", 0)


def dealt_by_reference(labels, k, mode, rng_seed):
    """The frozen dealing's splits, or the ForestError message it raises."""
    deal = (forest_reference.kfold_splits if mode == "kfold"
            else forest_reference.holdout_splits)
    try:
        return deal(labels, k, rng_seed)
    except ForestError as exc:
        return str(exc)


class TestSplits:
    """``_splits`` deals the rows the frozen dealing in forest_reference did."""

    @settings(max_examples=300, deadline=None)
    @given(labels=st.lists(st.sampled_from(["AAP", "BJP", "CONG", "x"]),
                           min_size=1, max_size=40),
           k=st.integers(2, 7),
           mode=st.sampled_from(CV_MODES),
           rng_seed=st.integers(-(2 ** 65), 2 ** 65))
    def test_matches_the_frozen_dealing(self, labels, k, mode, rng_seed):
        expected = dealt_by_reference(labels, k, mode, rng_seed)
        if isinstance(expected, str):
            with pytest.raises(ForestError) as raised:
                _splits(labels, k, mode, rng_seed)
            assert str(raised.value) == expected
            return
        splits = _splits(labels, k, mode, rng_seed)
        assert [(train.tolist(), test.tolist()) for train, test in splits] == expected
        for train, test in splits:
            assert train.dtype == test.dtype == np.int64
            assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
            assert not set(train.tolist()) & set(test.tolist())
            assert sorted(train.tolist() + test.tolist()) == list(range(len(labels)))

    @pytest.mark.parametrize("mode", CV_MODES)
    def test_pooled_confusion_is_the_sum_of_the_splits(self, mode):
        rows = noisy_rows(33, 4, 8)
        labels = ["A", "B", "C"] * 11
        classes = ["A", "B", "C"]
        streams = _StreamCache()
        per_split = [
            confusion_from_pairs(*_split_predictions(rows, labels, split, 6, 2, streams),
                                 classes)[0]
            for split in _splits(labels, 3, mode, 2)
        ]
        report = cross_validate(rows, labels, n_trees=6, k=3, mode=mode, rng_seed=2)
        assert len(per_split) == 3
        assert report.confusion == tuple(map(tuple, sum(per_split).tolist()))

    @pytest.mark.parametrize("labels, mode, message", [
        (["A"] * 6 + ["B"], "kfold", "class 'B' has 1 rows; stratified k=2 needs >= 2"),
        (["A", "B", "C"], "repeated-holdout-66/34",
         "holdout split produced an empty test set"),
    ], ids=["class_below_k", "all_singleton_holdout"])
    def test_dealing_fails_before_any_tree_grows(self, monkeypatch, labels, mode,
                                                 message):
        def fail(*args, **kwargs):
            raise AssertionError("a tree was grown before the splits were dealt")

        monkeypatch.setattr(forest, "train_forest", fail)
        with pytest.raises(ForestError, match=f"^{message}$"):
            cross_validate(noisy_rows(len(labels), 2, 0), labels, n_trees=2, k=2,
                           mode=mode)


class TestCrossValidate:
    def test_separable_blobs_high_accuracy(self):
        rows, labels, _ = make_blobs(per_class=20, rng_seed=13)
        report = cross_validate(rows, labels, n_trees=25, k=10, rng_seed=1)
        assert report.accuracy >= 0.95
        assert report.total == len(labels)

    def test_single_class_degenerate(self):
        rows = np.arange(24, dtype=float).reshape(12, 2)
        report = cross_validate(rows, ["BJP"] * 12, n_trees=3, k=3)
        assert report.accuracy == 1.0
        assert report.classes == ("BJP",)

    def test_deterministic_and_matches_golden_confusion(self):
        rows, labels, _ = make_blobs(per_class=12, rng_seed=21)
        a = cross_validate(rows, labels, n_trees=10, k=4, rng_seed=17)
        b = cross_validate(rows, labels, n_trees=10, k=4, rng_seed=17)
        assert a == b
        assert a.confusion == ((12, 0, 0), (0, 12, 0), (0, 0, 12))

    def test_holdout_mode_pools_k_test_sets(self):
        rows, labels, _ = make_blobs(per_class=15, rng_seed=2)
        report = cross_validate(
            rows, labels, n_trees=10,
            k=5, mode="repeated-holdout-66/34", rng_seed=3,
        )
        # 15 per class, 66% of 15 rounds to 10 train, 5 test, 3 classes, 5 reps
        assert report.total == 5 * 15
        assert report.accuracy >= 0.9

    def test_bad_inputs(self):
        rows, labels, _ = make_blobs(per_class=10)
        with pytest.raises(ForestError):
            cross_validate(rows, labels, k=1)
        with pytest.raises(ForestError):
            cross_validate(rows, labels, mode="bootstrap")
        with pytest.raises(ForestError):
            cross_validate(rows, labels, k=11)


@st.composite
def split_problems(draw):
    """One matrix and 1-6 nodes of different sizes to search together."""
    n_classes = draw(st.integers(2, 4))
    n_rows = draw(st.integers(2, 10))
    d = draw(st.integers(1, 5))
    column = st.lists(st.sampled_from(SPLIT_VALUES), min_size=n_rows, max_size=n_rows)
    columns = []
    for _ in range(d):
        if draw(st.booleans()):
            columns.append([draw(st.sampled_from(SPLIT_VALUES))] * n_rows)
        else:
            columns.append(draw(column))
    labels = draw(st.lists(st.integers(0, n_classes - 1),
                           min_size=n_rows, max_size=n_rows))
    mtry = draw(st.integers(1, d))
    nodes = draw(st.lists(
        st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=16),
        min_size=1, max_size=6,
    ))
    features = [
        sorted(draw(st.sets(st.integers(0, d - 1), min_size=mtry, max_size=mtry)))
        for _ in nodes
    ]
    return columns, labels, n_classes, nodes, features


def brute_force_split(columns, labels, n_classes, node_idx, features):
    """Oracle: try every (feature, midpoint) pair with plain Python loops.

    A split's score is the sum over both children of sum(count^2)/size, the
    Gini gain up to a constant, written with the same float operations as
    the implementation so exact ties stay ties.
    """
    def score(members):
        counts = [0] * n_classes
        for i in members:
            counts[labels[i]] += 1
        return sum(c * c for c in counts) / len(members)

    parent = score(node_idx)
    best = None
    for feature in features:
        values = sorted({columns[feature][i] for i in node_idx})
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if threshold == hi:
                threshold = lo
            left = [i for i in node_idx if columns[feature][i] <= threshold]
            right = [i for i in node_idx if columns[feature][i] > threshold]
            gain = score(left) + score(right)
            if gain > parent and (best is None or gain > best[0]):
                best = (gain, feature, threshold)
    return None if best is None else (best[1], best[2])


def segmented_splits(columns, labels, n_classes, nodes, features):
    """All nodes through one _best_splits call, children checked per node."""
    matrix = np.array(columns, dtype=np.float64).T
    y = np.array(labels, dtype=np.int64)
    node_rows = [np.array(idx, dtype=np.int32) for idx in nodes]
    counts = np.array([np.bincount(y[rows], minlength=n_classes) for rows in node_rows])
    results = _best_splits(matrix, _dense_ranks(matrix), y, node_rows,
                           np.array(features, dtype=np.int64), counts)
    found = []
    for rows, result in zip(node_rows, results):
        if result is None:
            found.append(None)
            continue
        feature, threshold, left, right, left_counts, right_counts = result
        goes_left = matrix[rows, feature] <= threshold
        assert sorted(left.tolist()) == sorted(rows[goes_left].tolist())
        assert sorted(right.tolist()) == sorted(rows[~goes_left].tolist())
        assert left_counts == np.bincount(y[left], minlength=n_classes).tolist()
        assert right_counts == np.bincount(y[right], minlength=n_classes).tolist()
        found.append((feature, threshold))
    return found


class TestBestSplit:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_matches_brute_force(self, problem):
        columns, labels, n_classes, nodes, features = problem
        assert segmented_splits(*problem) == [
            brute_force_split(columns, labels, n_classes, idx, cand)
            for idx, cand in zip(nodes, features)
        ]

    def test_ties_prefer_smallest_feature_then_threshold(self):
        # Columns 0 and 1 are equal, and cuts at 0.5 and 2.5 score the same.
        # The tied node comes second, after a node that splits elsewhere.
        column = [0.0, 1.0, 2.0, 3.0]
        columns, labels = [column, column], [0, 1, 1, 0]
        nodes, features = [[0, 0, 1], [0, 1, 2, 3]], [[0, 1], [0, 1]]
        assert segmented_splits(columns, labels, 2, nodes, features) == [
            (0, 0.5), (0, 0.5),
        ]
        assert brute_force_split(columns, labels, 2, nodes[1], [0, 1]) == (0, 0.5)

    def test_midpoint_that_rounds_up_keeps_rows_apart(self):
        problem = ([[1.0 + 2.0**-52, 1.0 + 2.0**-51]], [0, 1], 2, [[0, 1]], [[0]])
        assert segmented_splits(*problem) == [(0, 1.0 + 2.0**-52)]


class TestLockstepChunks:
    @pytest.mark.parametrize("chunk_pairs", [1, 150, 2_000])
    def test_chunking_leaves_forest_unchanged(self, monkeypatch, chunk_pairs):
        # 1 gives every node a chunk of its own, 150 and 2,000 split each
        # step into several chunks of several nodes; the golden digest is
        # the one test_golden_forest_digest pins for the default.
        monkeypatch.setattr(forest, "_CHUNK_PAIRS", chunk_pairs)
        rows, labels = sparse_wide()
        grown = train_forest(rows, labels, n_trees=20, rng_seed=3)
        assert forest_digest(grown, 3) == (
            "06b9b06f17d02ac44cdb77ed1ecfb6a952b309c99089dc52cb58070198caeb75"
        )


def noisy_rows(n_rows, d, rng_seed):
    """Gaussian rows; with labels unrelated to them, trees grow deep."""
    return np.random.default_rng(rng_seed).normal(size=(n_rows, d))


# 11 + 10 rows dealt into 4 stratified folds of 6, 6, 5 and 4 rows, so the
# training sizes run 15, 15, 16, 17
UNEVEN_LABELS = ["A", "B"] * 10 + ["A"]


def set_workers(monkeypatch, workers):
    """Run cross_validate's splits in ``workers`` forked processes, at most
    one a split. 1 runs them in this process, in split order, as on one
    CPU, so that what a test records of them stays in this process."""
    monkeypatch.setattr(forest, "_worker_count", lambda n_splits: min(workers, n_splits))


class TestStreamReplay:
    """Forests that share drawn streams equal forests grown alone."""

    @staticmethod
    def forests_of_cv(monkeypatch, rows, labels, **kwargs):
        grown = []
        train = forest.train_forest

        def recording(rows, labels, n_trees, rng_seed, **options):
            result = train(rows, labels, n_trees, rng_seed, **options)
            grown.append((rows, labels, n_trees, rng_seed, result))
            return result

        with monkeypatch.context() as patch:
            set_workers(patch, 1)
            patch.setattr(forest, "train_forest", recording)
            cross_validate(rows, labels, **kwargs)
        return grown

    @pytest.mark.parametrize("rows, labels, mode, k", [
        (noisy_rows(21, 5, 1), UNEVEN_LABELS, "kfold", 4),
        (noisy_rows(45, 4, 2), ["A", "B", "C"] * 15, "repeated-holdout-66/34", 5),
    ], ids=["kfold", "holdout"])
    def test_every_split_forest_equals_one_grown_alone(self, monkeypatch, rows,
                                                       labels, mode, k):
        grown = self.forests_of_cv(monkeypatch, rows, labels, n_trees=8, k=k,
                                   mode=mode, rng_seed=6)
        sizes = [len(train_rows) for train_rows, *_ in grown]
        assert len(sizes) == k and len(set(sizes)) < k  # some splits replay
        if mode == "kfold":
            assert sizes == [15, 15, 16, 17]
        for train_rows, train_labels, n_trees, rng_seed, result in grown:
            alone = train_forest(train_rows, train_labels, n_trees, rng_seed)
            assert forest_to_dict(result, rng_seed) == forest_to_dict(alone, rng_seed)

    @pytest.mark.parametrize("second", [
        (noisy_rows(30, 7, 4), ["A", "B", "C"] * 10, 9, 6),
        (noisy_rows(24, 5, 3)[:, ::-1], ["B", "A", "B"] * 8, 10, 6),
    ], ids=["other_shape", "other_seed"])
    def test_one_cache_across_keys(self, second):
        first = (noisy_rows(24, 5, 3), ["A", "B", "B"] * 8, 9, 4)
        more_trees = first[:2] + (9, 7)  # the first key again, with more trees
        streams = forest._StreamCache()
        for rows, labels, rng_seed, n_trees in (first, second, first, more_trees):
            shared = train_forest(rows, labels, n_trees, rng_seed, streams=streams)
            alone = train_forest(rows, labels, n_trees, rng_seed)
            assert forest_to_dict(shared, rng_seed) == forest_to_dict(alone, rng_seed)

    def test_one_generator_per_tree_and_training_size(self, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        set_workers(monkeypatch, 1)
        monkeypatch.setattr(np.random, "default_rng", counting)
        cross_validate(noisy_rows(21, 5, 1), UNEVEN_LABELS, n_trees=6, k=4, rng_seed=5)
        # a tree's stream is seeded (rng_seed, t); the folds' is (rng_seed, 1009)
        tree_seeds = Counter(seed for seed in seeds
                             if isinstance(seed, tuple) and len(seed) == 2
                             and seed[1] < 6)
        # three training sizes (15, 16, 17) over four folds
        assert tree_seeds == {(5, t): 3 for t in range(6)}


@st.composite
def cv_problems(draw):
    """A small matrix of tied values, 1-3 classes of k to 8 rows each, k
    and the mode; the labels are unrelated to the rows."""
    k = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(k, 8), min_size=1, max_size=3))
    labels = draw(st.permutations(
        [cls for cls, count in zip("ABC", counts) for _ in range(count)]))
    d = draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from(SPLIT_VALUES),
                          min_size=len(labels) * d, max_size=len(labels) * d))
    rows = np.array(cells).reshape(len(labels), d)
    return rows, labels, k, draw(st.sampled_from(CV_MODES))


class TestWorkers:
    """Splits run in forked workers give what they give in-process."""

    @settings(max_examples=25, deadline=None)
    @given(cv_problems(), st.integers(0, 2 ** 32))
    def test_same_predictions_and_report_for_any_worker_count(self, problem, rng_seed):
        rows, labels, k, mode = problem
        splits = _splits(labels, k, mode, rng_seed)
        # training sizes never fall along the split order, so each worker's
        # contiguous block holds neighbouring sizes
        sizes = [len(train) for train, _ in splits]
        assert sizes == sorted(sizes)
        in_order = forest._block_predictions(rows, labels, splits, 4, rng_seed,
                                             range(len(splits)))
        for workers in (2, 3):
            assert forest._pooled_predictions(rows, labels, splits, 4, rng_seed,
                                              min(workers, k)) == in_order
        reports = []
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                set_workers(patch, workers)
                reports.append(cross_validate(rows, labels, n_trees=4, k=k, mode=mode,
                                              rng_seed=rng_seed))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]
        assert multiprocessing.active_children() == []

    def test_splits_run_outside_this_process(self, monkeypatch, tmp_path):
        split_predictions = forest._split_predictions

        def recording(*args):
            with open(tmp_path / "pids", "a") as pids:
                pids.write(f"{os.getpid()}\n")
            return split_predictions(*args)

        set_workers(monkeypatch, 2)
        monkeypatch.setattr(forest, "_split_predictions", recording)
        cross_validate(noisy_rows(12, 3, 0), ["A", "B"] * 6, n_trees=3, k=4)
        pids = (tmp_path / "pids").read_text().split()
        assert len(pids) == 4
        assert str(os.getpid()) not in pids
        assert multiprocessing.active_children() == []

    def test_error_in_a_worker_reaches_the_caller_unchanged(self, monkeypatch):
        caller = os.getpid()

        def fail(*args, **kwargs):
            where = "the caller" if os.getpid() == caller else "a worker"
            raise ForestError(f"cannot train on these rows in {where}")

        set_workers(monkeypatch, 2)
        monkeypatch.setattr(forest, "train_forest", fail)
        with pytest.raises(ForestError) as raised:
            cross_validate(noisy_rows(12, 3, 0), ["A", "B"] * 6, n_trees=3, k=4)
        assert str(raised.value) == "cannot train on these rows in a worker"
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_fails_the_call(self, monkeypatch):
        def die(*args, **kwargs):
            os._exit(1)

        set_workers(monkeypatch, 2)
        monkeypatch.setattr(forest, "train_forest", die)
        with pytest.raises(BrokenProcessPool):
            cross_validate(noisy_rows(12, 3, 0), ["A", "B"] * 6, n_trees=3, k=4)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, n_splits, expected", [
        ({0}, 10, 1), ({0, 1}, 10, 2), ({0, 1, 2, 3}, 3, 3),
    ])
    def test_one_worker_per_cpu_at_most_one_a_split(self, monkeypatch, cpus, n_splits,
                                                    expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert forest._worker_count(n_splits) == expected

    def test_in_process_without_cpu_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert forest._worker_count(10) == 1

    def test_in_process_beside_another_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert forest._worker_count(10) == 2
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            assert forest._worker_count(10) == 1
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()

    def test_in_process_in_a_daemonic_process(self, monkeypatch):
        # a daemonic process, such as a pool's worker, may start no child
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert forest._worker_count(10) == 1
