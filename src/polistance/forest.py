"""Random forest classifier with fully deterministic training.

Trees are grown CART-style on bootstrap samples (drawn with replacement,
sample size = row count) using Gini impurity and axis-aligned midpoint
thresholds. Training is single-threaded, and each tree consumes its own
RNG stream seeded by (rng_seed, tree_index), so a forest is bit-identical
for a given seed and no tree's draws depend on another's. All ties break
the same way every run: equal-gain splits prefer the lowest attribute
index and threshold, and equal vote counts prefer the lexicographically
smallest class name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .metrics import EvalReport, eval_metrics

__all__ = [
    "ForestError",
    "ForestParams",
    "Forest",
    "Tree",
    "balance_classes",
    "cross_validate",
    "load_forest",
    "predict",
    "predict_many",
    "save_forest",
    "stratified_folds",
    "train_forest",
]

_SEED_MASK = (1 << 64) - 1
_FOLD_STREAM = 1009
_HOLDOUT_STREAM = 6634
_BALANCE_STREAM = 4242

CV_MODES = ("kfold", "repeated-holdout-66/34")


class ForestError(ValueError):
    """Raised for invalid training or prediction inputs."""


@dataclass(frozen=True)
class ForestParams:
    """Training hyperparameters.

    ``features_per_split`` defaults to ceil(sqrt(d)) at fit time when left
    as None; ``max_depth`` None means unlimited.
    """

    n_trees: int = 100
    max_depth: int | None = None
    features_per_split: int | None = None
    min_leaf: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ForestError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ForestError("max_depth must be >= 1 or None")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ForestError("features_per_split must be >= 1 or None")
        if self.min_leaf < 1:
            raise ForestError("min_leaf must be >= 1")


@dataclass(frozen=True)
class Tree:
    """One decision tree as parallel node arrays.

    ``feature[i]`` is -1 for leaves, whose class index sits in
    ``leaf_class[i]``. Internal nodes send rows with value <= threshold to
    ``left[i]`` and the rest to ``right[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray

    def predict_class_indices(self, rows: np.ndarray) -> np.ndarray:
        position = np.zeros(len(rows), dtype=np.int64)
        active = self.feature[position] >= 0
        while active.any():
            at = position[active]
            values = rows[active, self.feature[at]]
            position[active] = np.where(
                values <= self.threshold[at], self.left[at], self.right[at]
            )
            active = self.feature[position] >= 0
        return self.leaf_class[position]


@dataclass(frozen=True)
class Forest:
    params: ForestParams
    classes: tuple[str, ...]
    n_features: int
    trees: tuple[Tree, ...] = field(repr=False)


def _best_split(
    rows: np.ndarray,
    onehot: np.ndarray,
    node_idx: np.ndarray,
    features: np.ndarray,
    class_counts: np.ndarray,
    min_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) by Gini gain over the candidate features.

    All candidates are searched in one pass: the node's (n, f) value block
    is sorted column by column, and one cumulative sum over the sorted
    (n, f, C) one-hot block gives the class counts left of every cut. A cut
    scores sum(count^2)/size over both children (maximizing it minimizes
    Gini); counts and squares are exact integers in float64, so scores
    compare exactly. ``onehot[i]`` is the class indicator row of training
    row ``i``, and ``class_counts`` is the node's class histogram.
    ``features`` must be ascending: ties prefer the smallest feature index,
    then the smallest threshold. Returns None when no cut beats the parent
    node's score.
    """
    n = len(node_idx)
    values = rows[node_idx[:, None], features]
    order = np.argsort(values, axis=0, kind="stable")
    sorted_values = values[order, np.arange(len(features))]
    cut = sorted_values[1:] != sorted_values[:-1]
    cut[: min_leaf - 1] = False
    cut[n - min_leaf:] = False
    # feature-major, so the first maximum is the smallest feature and threshold
    col, pos = np.nonzero(cut.T)
    if not len(pos):
        return None
    left_counts = np.cumsum(onehot[node_idx[order]], axis=0)[pos, col]
    left_sizes = pos + 1.0
    scores = (
        (left_counts**2).sum(axis=1) / left_sizes
        + ((class_counts - left_counts) ** 2).sum(axis=1) / (n - left_sizes)
    )
    best = int(np.argmax(scores))
    if not scores[best] > float((class_counts**2).sum()) / n:
        return None
    lo = float(sorted_values[pos[best], col[best]])
    hi = float(sorted_values[pos[best] + 1, col[best]])
    threshold = (lo + hi) / 2.0
    if threshold == hi:  # midpoint rounded up; keep training rows apart
        threshold = lo
    return int(features[col[best]]), threshold


def _grow_tree(
    rows: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: ForestParams,
    mtry: int,
    tree_index: int,
) -> Tree:
    rng = np.random.default_rng((params.rng_seed & _SEED_MASK, tree_index))
    n = len(rows)
    bootstrap = rng.integers(0, n, size=n)
    onehot = np.eye(n_classes, dtype=np.int64)[y]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_class: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(-1)
        return len(feature) - 1

    d = rows.shape[1]
    root = new_node()
    # depth-first, left child before right, so RNG consumption order is fixed
    stack: list[tuple[int, np.ndarray, int]] = [(root, bootstrap, 0)]
    while stack:
        node, node_idx, depth = stack.pop()
        counts = np.bincount(y[node_idx], minlength=n_classes)
        majority = int(np.argmax(counts))  # first max = smallest class index
        pure = counts[majority] == len(node_idx)
        depth_capped = params.max_depth is not None and depth >= params.max_depth
        too_small = len(node_idx) < 2 * params.min_leaf

        split = None
        if not (pure or depth_capped or too_small):
            candidates = np.sort(rng.choice(d, size=mtry, replace=False))
            split = _best_split(rows, onehot, node_idx, candidates, counts,
                                params.min_leaf)
        if split is None:
            leaf_class[node] = majority
            continue

        split_feature, split_threshold = split
        mask = rows[node_idx, split_feature] <= split_threshold
        feature[node] = split_feature
        threshold[node] = split_threshold
        left_node = new_node()
        right_node = new_node()
        left[node] = left_node
        right[node] = right_node
        stack.append((right_node, node_idx[~mask], depth + 1))
        stack.append((left_node, node_idx[mask], depth + 1))

    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        leaf_class=np.array(leaf_class, dtype=np.int64),
    )


def _as_matrix(rows) -> np.ndarray:
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2:
        raise ForestError(f"rows must be 2-dimensional, got shape {matrix.shape}")
    return matrix


def train_forest(
    rows,
    labels: Sequence[str],
    params: ForestParams | None = None,
) -> Forest:
    """Train a forest on a dense matrix (or anything ndarray-like).

    Trees are grown one after another on the calling thread. Training is
    deterministic for a given (data, params): every tree draws from its
    own (rng_seed, tree_index) stream.
    """
    params = params or ForestParams()
    matrix = _as_matrix(rows)
    if len(matrix) == 0:
        raise ForestError("cannot train on zero rows")
    if len(labels) != len(matrix):
        raise ForestError(f"{len(matrix)} rows but {len(labels)} labels")

    classes = tuple(sorted(set(labels)))
    class_index = {cls: i for i, cls in enumerate(classes)}
    y = np.array([class_index[label] for label in labels], dtype=np.int64)

    d = matrix.shape[1]
    if d == 0:
        raise ForestError("cannot train on zero features")
    mtry = params.features_per_split or math.ceil(math.sqrt(d))
    if mtry > d:
        raise ForestError(f"features_per_split {mtry} exceeds feature count {d}")

    trees = tuple(
        _grow_tree(matrix, y, len(classes), params, mtry, t)
        for t in range(params.n_trees)
    )
    return Forest(params=params, classes=classes, n_features=d, trees=trees)


def _vote_matrix(forest: Forest, matrix: np.ndarray) -> np.ndarray:
    votes = np.zeros((len(matrix), len(forest.classes)), dtype=np.int64)
    row_index = np.arange(len(matrix))
    for tree in forest.trees:
        votes[row_index, tree.predict_class_indices(matrix)] += 1
    return votes


def predict_many(forest: Forest, rows) -> list[str]:
    """Plurality vote of all trees; ties go to the smallest class name."""
    matrix = _as_matrix(rows)
    if matrix.shape[1] != forest.n_features:
        raise ForestError(
            f"row dimension {matrix.shape[1]} != training dimension {forest.n_features}"
        )
    votes = _vote_matrix(forest, matrix)
    return [forest.classes[i] for i in votes.argmax(axis=1)]


def predict(forest: Forest, row) -> str:
    """Classify a single feature vector."""
    return predict_many(forest, np.asarray(row, dtype=np.float64).reshape(1, -1))[0]


def balance_classes(
    rows,
    labels: Sequence[str],
    rng_seed: int = 0,
) -> tuple[np.ndarray, list[str]]:
    """Subsample without replacement so every class matches the smallest.

    The surviving rows keep their original relative order. Deterministic
    for a given seed.
    """
    matrix = _as_matrix(rows)
    if len(labels) != len(matrix):
        raise ForestError(f"{len(matrix)} rows but {len(labels)} labels")
    if len(matrix) == 0:
        raise ForestError("no rows to balance")

    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    smallest = min(len(v) for v in by_class.values())

    rng = np.random.default_rng((rng_seed & _SEED_MASK, _BALANCE_STREAM))
    keep: list[int] = []
    for cls in sorted(by_class):
        indices = by_class[cls]
        if len(indices) == smallest:
            keep.extend(indices)
        else:
            chosen = rng.choice(len(indices), size=smallest, replace=False)
            keep.extend(indices[i] for i in chosen)
    keep.sort()
    return matrix[keep], [labels[i] for i in keep]


def _stratified_shuffled(
    labels: Sequence[str],
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    return {
        cls: rng.permutation(np.array(by_class[cls], dtype=np.int64))
        for cls in sorted(by_class)
    }


def stratified_folds(
    labels: Sequence[str],
    k: int,
    rng_seed: int = 0,
) -> list[list[int]]:
    """Deal each class's (shuffled) rows round-robin into k folds.

    Every class must have at least k rows; per-fold class counts then
    differ by at most one from an even split.
    """
    if k < 2:
        raise ForestError("k must be >= 2")
    rng = np.random.default_rng((rng_seed & _SEED_MASK, _FOLD_STREAM))
    shuffled = _stratified_shuffled(labels, rng)
    for cls, indices in shuffled.items():
        if len(indices) < k:
            raise ForestError(
                f"class {cls!r} has {len(indices)} rows; stratified k={k} needs >= {k}"
            )
    folds: list[list[int]] = [[] for _ in range(k)]
    for indices in shuffled.values():
        for i, row in enumerate(indices):
            folds[i % k].append(int(row))
    return [sorted(fold) for fold in folds]


def cross_validate(
    rows,
    labels: Sequence[str],
    params: ForestParams | None = None,
    k: int = 10,
    mode: str = "kfold",
    rng_seed: int = 0,
) -> EvalReport:
    """Cross-validated evaluation; returns metrics over pooled confusions.

    ``kfold`` deals each class round-robin into k stratified folds (every
    class needs >= k rows) and tests each fold once. The
    ``repeated-holdout-66/34`` mode draws k independent stratified splits
    with 66% of each class for training. Either way the per-split
    confusion matrices are summed before computing metrics, so the
    reported accuracy is the fraction of all test predictions that were
    correct.
    """
    params = params or ForestParams()
    matrix = _as_matrix(rows)
    if len(labels) != len(matrix):
        raise ForestError(f"{len(matrix)} rows but {len(labels)} labels")
    if k < 2:
        raise ForestError("k must be >= 2")
    if mode not in CV_MODES:
        raise ForestError(f"mode must be one of {CV_MODES}, got {mode!r}")

    classes = tuple(sorted(set(labels)))
    class_index = {cls: i for i, cls in enumerate(classes)}
    labels = list(labels)
    pooled = np.zeros((len(classes), len(classes)), dtype=np.int64)

    def run_split(train_idx: np.ndarray, test_idx: np.ndarray) -> None:
        forest = train_forest(
            matrix[train_idx], [labels[i] for i in train_idx], params
        )
        predicted = predict_many(forest, matrix[test_idx])
        for i, guess in zip(test_idx, predicted):
            pooled[class_index[labels[i]], class_index[guess]] += 1

    if mode == "kfold":
        for fold in stratified_folds(labels, k, rng_seed):
            test_idx = np.array(fold, dtype=np.int64)
            in_test = np.zeros(len(matrix), dtype=bool)
            in_test[test_idx] = True
            train_idx = np.flatnonzero(~in_test)
            run_split(train_idx, test_idx)
    else:
        for rep in range(k):
            rng = np.random.default_rng((rng_seed & _SEED_MASK, _HOLDOUT_STREAM, rep))
            shuffled = _stratified_shuffled(labels, rng)
            train: list[int] = []
            test: list[int] = []
            for indices in shuffled.values():
                n_cls = len(indices)
                n_train = min(max(round(0.66 * n_cls), 1), max(n_cls - 1, 1))
                train.extend(int(i) for i in indices[:n_train])
                test.extend(int(i) for i in indices[n_train:])
            if not test:
                raise ForestError("holdout split produced an empty test set")
            run_split(np.array(sorted(train), dtype=np.int64),
                      np.array(sorted(test), dtype=np.int64))

    return eval_metrics(pooled, classes)


_FORMAT_VERSION = 1


def forest_to_dict(forest: Forest) -> dict:
    return {
        "format_version": _FORMAT_VERSION,
        "classes": list(forest.classes),
        "n_features": forest.n_features,
        "params": {
            "n_trees": forest.params.n_trees,
            "max_depth": forest.params.max_depth,
            "features_per_split": forest.params.features_per_split,
            "min_leaf": forest.params.min_leaf,
            "rng_seed": forest.params.rng_seed,
        },
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "leaf_class": tree.leaf_class.tolist(),
            }
            for tree in forest.trees
        ],
    }


def forest_from_dict(payload: dict) -> Forest:
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ForestError(
            f"unsupported model format {payload.get('format_version')!r}"
        )
    trees = tuple(
        Tree(
            feature=np.array(tree["feature"], dtype=np.int64),
            threshold=np.array(tree["threshold"], dtype=np.float64),
            left=np.array(tree["left"], dtype=np.int64),
            right=np.array(tree["right"], dtype=np.int64),
            leaf_class=np.array(tree["leaf_class"], dtype=np.int64),
        )
        for tree in payload["trees"]
    )
    return Forest(
        params=ForestParams(**payload["params"]),
        classes=tuple(payload["classes"]),
        n_features=int(payload["n_features"]),
        trees=trees,
    )


def save_forest(forest: Forest, path: str | Path) -> None:
    Path(path).write_text(json.dumps(forest_to_dict(forest)) + "\n", encoding="utf-8")


def load_forest(path: str | Path) -> Forest:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ForestError(f"cannot load model {path}: {exc}") from exc
    return forest_from_dict(payload)
