"""Random forest classifier with fully deterministic training.

Trees are grown CART-style on bootstrap samples (drawn with replacement,
sample size = row count) using Gini impurity and axis-aligned midpoint
thresholds. Each tree draws from its own generator, seeded by
(rng_seed, tree_index), so a forest is bit-identical for a given seed and
no tree's draws depend on another's. All ties break the same way every
run: equal-gain splits prefer the lowest attribute index and threshold,
and equal vote counts prefer the lexicographically smallest class name.

One forest trains on one thread and grows all its trees in lockstep.
Step k pops the k-th node of every tree's depth-first stack (left child
before right). The leaf test and the draw of a node's candidate features
stay per node, on the node's own tree's generator, so every tree makes
exactly the draws it would make grown alone, in the same order, and the
forest does not depend on how the trees are batched. Only the split search
is shared: the step's nodes that need one are searched together in a few
numpy passes over their rows laid end to end (``_best_splits``), in chunks
of whole nodes of at most ``_CHUNK_PAIRS`` (candidate, row) pairs, which
bounds the search's temporary memory. A split hands its children their rows
and class counts from the chosen cut, so no node recounts its classes.

``cross_validate`` deals every split first (``_splits``), then maps one
function over them (``_split_predictions``): in ``workers.in_order``'s
forked worker processes, one per CPU this process may run on and pinned to
it, each taking the next split no worker has taken, or in-process on one
CPU. Each split grows its forest from fresh draws, and the results are
joined in split order, so every forest and report is the same for any
worker count.

Prediction walks all trees at once: their node arrays lie end to end, and
every (tree, row) pair steps down one level per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .metrics import EvalReport
from .workers import in_order, worker_count as _worker_count

__all__ = [
    "ForestError",
    "Forest",
    "Tree",
    "balance_classes",
    "cross_validate",
    "predict_many",
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


@dataclass(frozen=True)
class Forest:
    classes: tuple[str, ...]
    n_features: int
    trees: tuple[Tree, ...] = field(repr=False)


# Upper bound on the (candidate, row) pairs one batched split search holds;
# a step with more is searched in several chunks of whole nodes, and a node
# with more is searched alone. The search's temporaries take up to about 50
# bytes a pair, so a chunk stays near 0.6 MiB. Speed stops improving here
# (8,000 pairs measured about 5% slower, 16,000 no faster); larger chunks
# only raise peak memory.
_CHUNK_PAIRS = 12_000

# Rows of candidate ids a tree draws at once. A generator call's fixed cost
# dwarfs a few ids: in blocks a set cost 0.7-1.9 us at d of 11 to 5,000,
# against 7-15 us for one rng.choice a set (Python 3.11, numpy 2.4, 2-vCPU VM).
_DRAW_ROWS = 64


def _dense_ranks(matrix: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column, from 0,
    laid out (feature, row)."""
    order = np.argsort(matrix, axis=0, kind="stable")
    ordered = np.take_along_axis(matrix, order, axis=0)
    steps = np.zeros(matrix.shape, dtype=np.int64)
    steps[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty(matrix.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return np.ascontiguousarray(ranks.T)


def _best_splits(
    matrix: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    nodes: list[np.ndarray],
    candidates: np.ndarray,
    class_counts: np.ndarray,
) -> list[tuple | None]:
    """Best (feature, threshold) by Gini gain for each of several nodes.

    ``nodes[s]`` holds node s's training rows, ``candidates[s]`` its
    ascending candidate features and ``class_counts[s]`` its class
    histogram; ``ranks`` comes from ``_dense_ranks(matrix)``. The nodes
    lie end to end as segments of one axis of width N, and candidate slot j
    is row j of a (mtry, N) block of integer keys, (segment * n + rank) <<
    shift | position, so one sort along each row orders every segment by
    value and keeps each entry's position in its low bits. The order among
    equal values does not matter: cuts fall only between distinct values.
    A cumulative sum of each class's indicator along the rows gives the
    class counts left of every cut. A cut scores sum(count^2)/size over
    both children (maximizing it minimizes Gini); the squares are summed
    as integers and divided as floats, so equal scores compare equal.
    Ties prefer the smallest feature index, then the smallest threshold.
    For each node, returns None when no cut beats its parent score, else
    (feature, threshold, left rows, right rows, left counts, right counts).
    The packed keys stay below 2**63: a block of several nodes holds at
    most _CHUNK_PAIRS pairs, and a block of one node is at most n wide.
    """
    n_classes = class_counts.shape[1]
    sizes = np.array([len(rows) for rows in nodes])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    width = int(ends[-1])
    segment = np.repeat(np.arange(len(nodes)), sizes)
    rows = np.concatenate(nodes)

    shift = width.bit_length()
    keys = ranks.take(np.repeat(candidates.T * ranks.shape[1], sizes, axis=1) + rows)
    keys += segment * ranks.shape[1]
    keys <<= shift
    keys |= np.arange(width)
    keys.sort(axis=1)
    order = np.empty(keys.shape, dtype=np.int32)
    np.bitwise_and(keys, (1 << shift) - 1, out=order, casting="unsafe")
    keys >>= shift
    cut = keys[:, 1:] != keys[:, :-1]
    del keys
    cut &= segment[1:] == segment[:-1]  # no cut between two nodes
    flat = np.flatnonzero(cut)
    del cut
    pos = flat % (width - 1)
    flat += flat // (width - 1)  # index into the (mtry, N) block
    at = segment.take(pos)
    left_sizes = pos + 1 - starts.take(at)
    del pos

    # class counts left of each cut: cumulative counts along the row, less
    # those of the segments before it, which every row holds in full
    before = (np.cumsum(class_counts, axis=0) - class_counts).T
    labels = y.take(rows).take(order)
    lefts = np.empty((n_classes, len(flat)), dtype=np.int32)
    lefts[-1] = left_sizes
    for c in range(n_classes - 1):
        lefts[c] = np.cumsum(labels == c, axis=1, dtype=np.int32).take(flat)
        lefts[c] -= before[c].take(at)
        lefts[-1] -= lefts[c]
    del labels
    squares = np.zeros(len(flat), dtype=np.int64)
    for left in lefts:
        squares += np.square(left, dtype=np.int64)
    scores = squares / left_sizes
    squares[:] = 0
    for c, left in enumerate(lefts):
        right = class_counts[:, c].take(at)
        right -= left
        squares += right * right
    del right
    scores += squares / (sizes.take(at) - left_sizes)
    del squares
    best = np.full(len(nodes), -np.inf)
    np.maximum.at(best, at, scores)
    # cuts are listed slot-major, so the first maximum is the smallest
    # feature, then the smallest threshold
    tied = np.flatnonzero(scores == best[at])
    first = np.full(len(nodes), len(flat))
    np.minimum.at(first, at[tied], tied)

    split = np.flatnonzero(best > (class_counts**2).sum(axis=1) / sizes)
    results: list[tuple | None] = [None] * len(nodes)
    if not len(split):
        return results
    chosen = first[split]
    slot, pos = np.divmod(flat[chosen], width)
    features = candidates[split, slot]
    lo = matrix[rows[order[slot, pos]], features]
    hi = matrix[rows[order[slot, pos + 1]], features]
    with np.errstate(over="ignore", invalid="ignore"):
        thresholds = (lo + hi) / 2.0
    # a midpoint that rounds up to hi would send hi's rows left, and one of
    # -inf and inf (nan) or of two huge values (inf) would send all one way
    thresholds = np.where(thresholds < hi, thresholds, lo)
    slot_of = np.zeros(len(nodes), dtype=np.int64)
    slot_of[split] = slot
    by_value = rows[order[slot_of[segment], np.arange(width)]]
    left_counts = lefts[:, chosen].T
    right_counts = class_counts[split] - left_counts
    for s, feature, threshold, start, cut_at, end, left, right in zip(
        split.tolist(), features.tolist(), thresholds.tolist(),
        starts[split].tolist(), (pos + 1).tolist(), ends[split].tolist(),
        left_counts.tolist(), right_counts.tolist(),
    ):
        results[s] = (feature, threshold, by_value[start:cut_at].copy(),
                      by_value[cut_at:end].copy(), left, right)
    return results


class _Growing:
    """One tree while it grows: its draws, depth-first stack and nodes.

    Tree t draws from its own (rng_seed, t) generator: its bootstrap of n
    row indices, then one set of candidate features per split attempt.
    """

    def __init__(self, rng_seed: int, t: int, y: np.ndarray, n_classes: int,
                 d: int) -> None:
        self._rng = np.random.default_rng((rng_seed & _SEED_MASK, t))
        bootstrap = self._rng.integers(0, len(y), size=len(y)).astype(np.int32)
        self._d = d
        self._sets = np.empty((0, math.ceil(math.sqrt(d))), dtype=np.int32)
        self._next = 0  # index of the next unused row of _sets
        self.feature: list[int] = [-1]
        self.threshold: list[float] = [0.0]
        self.left: list[int] = [-1]
        self.right: list[int] = [-1]
        self.leaf_class: list[int] = [-1]
        # (node, rows, class counts); the left child goes on top, so nodes
        # pop in depth-first, left-before-right order
        self.stack: list[tuple[int, np.ndarray, list[int]]] = [
            (0, bootstrap, np.bincount(y[bootstrap], minlength=n_classes).tolist())
        ]

    def candidates(self) -> np.ndarray:
        """The next ceil(sqrt(d)) distinct feature ids below d, ascending
        int32, uniform over all sets of that size.

        Sets come ``_DRAW_ROWS`` rows at a time: each row holds independent
        uniform ids, sorted, and a row that repeats an id is dropped. Every
        ordered row of distinct ids is equally likely, so a kept row is a
        uniform set. Another block is drawn when the kept rows run out.
        """
        while self._next == len(self._sets):
            rows = self._rng.integers(0, self._d, size=(_DRAW_ROWS, self._sets.shape[1]),
                                      dtype=np.int32)
            rows.sort(axis=1)
            self._sets = rows[(rows[:, 1:] != rows[:, :-1]).all(axis=1)]
            self._next = 0
        self._next += 1
        return self._sets[self._next - 1]

    def leaf(self, node: int, counts: list[int]) -> None:
        self.leaf_class[node] = counts.index(max(counts))  # smallest class index

    def split(self, node: int, feature: int, threshold: float,
              left_rows: np.ndarray, right_rows: np.ndarray,
              left_counts: list[int], right_counts: list[int]) -> None:
        left = len(self.feature)
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = left + 1
        self.feature += (-1, -1)
        self.threshold += (0.0, 0.0)
        self.left += (-1, -1)
        self.right += (-1, -1)
        self.leaf_class += (-1, -1)
        self.stack.append((left + 1, right_rows, right_counts))
        self.stack.append((left, left_rows, left_counts))

    def tree(self) -> Tree:
        return Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            leaf_class=np.array(self.leaf_class, dtype=np.int64),
        )


def _grow_forest(
    matrix: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int,
    rng_seed: int,
) -> tuple[Tree, ...]:
    """Grow all trees in lockstep, each exactly as if grown alone.

    Step k pops the k-th depth-first node of every tree that still has one.
    Tree t takes its bootstrap, then one set of candidate features per
    split attempt, from its own generator in the order it would alone. Only
    the split search is shared by the step's nodes.
    """
    mtry = math.ceil(math.sqrt(matrix.shape[1]))
    ranks = _dense_ranks(matrix)
    growing = [_Growing(rng_seed, t, y, n_classes, matrix.shape[1])
               for t in range(n_trees)]

    def search(chunk: list[tuple]) -> None:
        splits = _best_splits(
            matrix, ranks, y,
            [entry[2] for entry in chunk],
            # int64, as _best_splits indexes ranks by candidate * n + row
            np.array([entry[4] for entry in chunk], dtype=np.int64),
            np.array([entry[3] for entry in chunk]),
        )
        for (tree, node, _, counts, _), split in zip(chunk, splits):
            if split is None:
                tree.leaf(node, counts)
            else:
                tree.split(node, *split)

    active = growing
    while active:
        # a chunk is searched as soon as it is full, which frees its nodes'
        # rows early; the trees are independent, so this changes no draw
        chunk: list[tuple] = []
        pairs = 0
        for tree in active:
            node, rows, counts = tree.stack.pop()
            if max(counts) == len(rows):  # pure, which a single row always is
                tree.leaf(node, counts)
                continue
            candidates = tree.candidates()
            if chunk and pairs + mtry * len(rows) > _CHUNK_PAIRS:
                search(chunk)
                chunk, pairs = [], 0
            chunk.append((tree, node, rows, counts, candidates))
            pairs += mtry * len(rows)
        if chunk:
            search(chunk)
        active = [tree for tree in active if tree.stack]
    return tuple(tree.tree() for tree in growing)


def _as_matrix(rows) -> np.ndarray:
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2:
        raise ForestError(f"rows must be 2-dimensional, got shape {matrix.shape}")
    # a NaN compares false both ways, so it has no place in a sorted column
    # and no threshold can send it left
    if np.isnan(matrix).any():
        raise ForestError("rows contain NaN")
    return matrix


def train_forest(
    rows,
    labels: Sequence[str],
    n_trees: int = 100,
    rng_seed: int = 0,
) -> Forest:
    """Train a forest on a dense matrix (or anything ndarray-like).

    Every tree grows to full size, as in Breiman (2001): a node becomes a
    leaf only when it is pure or no cut on its candidate features lowers
    its Gini impurity, so a leaf may hold one row, and each split draws
    ceil(sqrt(d)) candidate features. All trees grow in lockstep on the
    calling thread (see the module docstring). Training is deterministic
    for a given (data, n_trees, rng_seed): every tree draws its bootstrap
    and candidate sets from its own (rng_seed, tree_index) generator.
    """
    if n_trees < 1:
        raise ForestError("n_trees must be >= 1")
    matrix = _as_matrix(rows)
    if len(matrix) == 0:
        raise ForestError("cannot train on zero rows")
    if len(labels) != len(matrix):
        raise ForestError(f"{len(matrix)} rows but {len(labels)} labels")

    classes = tuple(sorted(set(labels)))
    class_index = {cls: i for i, cls in enumerate(classes)}
    y = np.array([class_index[label] for label in labels], dtype=np.int32)

    d = matrix.shape[1]
    if d == 0:
        raise ForestError("cannot train on zero features")
    trees = _grow_forest(matrix, y, len(classes), n_trees, rng_seed)
    return Forest(classes=classes, n_features=d, trees=trees)


def _vote_matrix(forest: Forest, matrix: np.ndarray) -> np.ndarray:
    """Each row's vote count per class index, all trees walked at once.

    The trees' node arrays lie end to end, as int32 to halve their memory,
    each child index moved by its tree's offset, and every (tree, row) pair
    steps down one level per pass until it stands on a leaf.
    """
    trees = forest.trees
    sizes = [len(tree.feature) for tree in trees]
    offsets = np.cumsum([0, *sizes[:-1]])
    shift = np.repeat(offsets.astype(np.int32), sizes)

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(tree, name) for tree in trees], dtype=np.int32)

    feature, leaf_class = joined("feature"), joined("leaf_class")
    left, right = joined("left"), joined("right")
    left += shift
    right += shift
    threshold = np.concatenate([tree.threshold for tree in trees])

    n_rows = len(matrix)
    # pair (tree, row) at tree * n_rows + row
    position = np.repeat(offsets, n_rows)
    row = np.tile(np.arange(n_rows), len(trees))
    live = np.flatnonzero(feature[position] >= 0)
    while len(live):
        at = position[live]
        goes_left = matrix[row[live], feature[at]] <= threshold[at]
        position[live] = np.where(goes_left, left[at], right[at])
        live = live[feature[position[live]] >= 0]
    n_classes = len(forest.classes)
    votes = np.bincount(row * n_classes + leaf_class[position],
                        minlength=n_rows * n_classes)
    return votes.reshape(n_rows, n_classes)


def predict_many(forest: Forest, rows) -> list[str]:
    """Plurality vote of all trees; ties go to the smallest class name."""
    matrix = _as_matrix(rows)
    if matrix.shape[1] != forest.n_features:
        raise ForestError(
            f"row dimension {matrix.shape[1]} != training dimension {forest.n_features}"
        )
    votes = _vote_matrix(forest, matrix)
    return [forest.classes[i] for i in votes.argmax(axis=1)]


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

    by_class = _class_rows(labels)
    smallest = min(len(v) for v in by_class.values())
    rng = np.random.default_rng((rng_seed & _SEED_MASK, _BALANCE_STREAM))
    keep = np.sort(np.concatenate([
        indices if len(indices) == smallest
        else indices[rng.choice(len(indices), size=smallest, replace=False)]
        for indices in by_class.values()
    ]))
    return matrix[keep], [labels[i] for i in keep]


def _class_rows(labels: Sequence[str]) -> dict[str, np.ndarray]:
    """Each class's ascending int64 row indices, in class-name order."""
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    return {cls: np.array(by_class[cls], dtype=np.int64) for cls in sorted(by_class)}


def _splits(
    labels: Sequence[str],
    k: int,
    mode: str,
    rng_seed: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every (train, test) pair of ascending int64 row indices, in run order.

    ``kfold`` deals each class's shuffled rows round-robin into k folds, so
    per-fold class counts differ by at most one from an even split. Raises
    ForestError for a class below k rows or a holdout with no test row.
    """
    by_class = _class_rows(labels)
    seed = rng_seed & _SEED_MASK
    if mode == "kfold":
        rng = np.random.default_rng((seed, _FOLD_STREAM))
        fold_of = np.empty(len(labels), dtype=np.int64)
        for cls, indices in by_class.items():
            if len(indices) < k:
                raise ForestError(
                    f"class {cls!r} has {len(indices)} rows; stratified k={k} needs >= {k}"
                )
            fold_of[rng.permutation(indices)] = np.arange(len(indices)) % k
        return [(np.flatnonzero(fold_of != i), np.flatnonzero(fold_of == i))
                for i in range(k)]
    splits = []
    for rep in range(k):
        rng = np.random.default_rng((seed, _HOLDOUT_STREAM, rep))
        in_train = np.zeros(len(labels), dtype=bool)
        for indices in by_class.values():
            n_cls = len(indices)
            n_train = min(max(round(0.66 * n_cls), 1), max(n_cls - 1, 1))
            in_train[rng.permutation(indices)[:n_train]] = True
        if in_train.all():
            raise ForestError("holdout split produced an empty test set")
        splits.append((np.flatnonzero(in_train), np.flatnonzero(~in_train)))
    return splits


def _split_predictions(
    matrix: np.ndarray,
    labels: list[str],
    split: tuple[np.ndarray, np.ndarray],
    n_trees: int,
    rng_seed: int,
) -> tuple[list[str], list[str]]:
    """One split's test labels and their predictions, in test-row order,
    from a forest trained on the split's train rows."""
    train_idx, test_idx = split
    forest = train_forest(matrix[train_idx], [labels[i] for i in train_idx],
                          n_trees, rng_seed)
    return [labels[i] for i in test_idx], predict_many(forest, matrix[test_idx])


def cross_validate(
    rows,
    labels: Sequence[str],
    n_trees: int = 100,
    k: int = 10,
    mode: str = "kfold",
    rng_seed: int = 0,
) -> EvalReport:
    """Cross-validated evaluation; returns metrics over pooled confusions.

    ``kfold`` deals each class round-robin into k stratified folds (every
    class needs >= k rows) and tests each fold once. The
    ``repeated-holdout-66/34`` mode draws k independent stratified splits
    with 66% of each class for training. Every split is dealt before the
    first tree is grown, so one that cannot be dealt fails first. Then each
    split's forest predicts its test rows, and the per-split confusion
    matrices are summed in split order before computing metrics, so the
    reported accuracy is the fraction of all test predictions that were
    correct. The one ``rng_seed`` seeds the folds or holdout splits and
    every forest's trees, so each split's forest is the one
    ``train_forest`` grows on its train rows.

    The splits run in forked worker processes, one per CPU in this
    process's affinity mask and at most one a split, each pinned to a CPU
    of its own and taking the next split that no worker has taken, or in
    split order in this process when that is one CPU or
    ``workers.worker_count`` finds forking unsafe. No worker outlives the
    call, an error raised in one reaches the caller unchanged, and a worker
    that dies makes the call raise ``RuntimeError`` with its exit code. The
    report is the same for any worker count.
    """
    matrix = _as_matrix(rows)
    if len(labels) != len(matrix):
        raise ForestError(f"{len(matrix)} rows but {len(labels)} labels")
    if k < 2:
        raise ForestError("k must be >= 2")
    if mode not in CV_MODES:
        raise ForestError(f"mode must be one of {CV_MODES}, got {mode!r}")

    labels = list(labels)
    splits = _splits(labels, k, mode, rng_seed)
    workers = _worker_count(len(splits))
    if workers > 1:
        # the workers are forked, so they inherit the inputs rather than
        # receive them
        results: list[tuple[list[str], list[str]]] = []
        in_order(lambda i: (_split_predictions(matrix, labels, splits[i], n_trees,
                                               rng_seed), ()),
                 len(splits), workers, lambda result, _: results.append(result))
    else:
        results = [_split_predictions(matrix, labels, split, n_trees, rng_seed)
                   for split in splits]
    truth = [label for split_truth, _ in results for label in split_truth]
    predicted = [label for _, split_predicted in results for label in split_predicted]
    return EvalReport.from_pairs(truth, predicted, sorted(set(labels)))
