"""A frozen copy of cross-validation's split dealing from before it was
dealt in one place.

``stratified_folds`` is the old public function that dealt the kfold
folds as lists, and ``holdout_splits`` is the old inline dealing of the
``repeated-holdout-66/34`` mode. The property test in
``tests/test_forest.py`` requires ``forest._splits`` to deal the same
rows. The dealing below is deliberately the plain list kind; do not
speed it up.
"""

from __future__ import annotations

import numpy as np

from polistance.forest import ForestError

_SEED_MASK = (1 << 64) - 1
_FOLD_STREAM = 1009
_HOLDOUT_STREAM = 6634


def _stratified_shuffled(labels, rng):
    by_class = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    return {
        cls: rng.permutation(np.array(by_class[cls], dtype=np.int64))
        for cls in sorted(by_class)
    }


def stratified_folds(labels, k, rng_seed=0):
    """Deal each class's (shuffled) rows round-robin into k folds."""
    if k < 2:
        raise ForestError("k must be >= 2")
    rng = np.random.default_rng((rng_seed & _SEED_MASK, _FOLD_STREAM))
    shuffled = _stratified_shuffled(labels, rng)
    for cls, indices in shuffled.items():
        if len(indices) < k:
            raise ForestError(
                f"class {cls!r} has {len(indices)} rows; stratified k={k} needs >= {k}"
            )
    folds = [[] for _ in range(k)]
    for indices in shuffled.values():
        for i, row in enumerate(indices):
            folds[i % k].append(int(row))
    return [sorted(fold) for fold in folds]


def kfold_splits(labels, k, rng_seed=0):
    """(train, test) lists of each fold, as ``cross_validate`` ran them."""
    splits = []
    for fold in stratified_folds(labels, k, rng_seed):
        in_test = set(fold)
        splits.append(([i for i in range(len(labels)) if i not in in_test], fold))
    return splits


def holdout_splits(labels, k, rng_seed=0):
    """(train, test) lists of each repetition, 66% of each class to train."""
    splits = []
    for rep in range(k):
        rng = np.random.default_rng((rng_seed & _SEED_MASK, _HOLDOUT_STREAM, rep))
        shuffled = _stratified_shuffled(labels, rng)
        train = []
        test = []
        for indices in shuffled.values():
            n_cls = len(indices)
            n_train = min(max(round(0.66 * n_cls), 1), max(n_cls - 1, 1))
            train.extend(int(i) for i in indices[:n_train])
            test.extend(int(i) for i in indices[n_train:])
        if not test:
            raise ForestError("holdout split produced an empty test set")
        splits.append((sorted(train), sorted(test)))
    return splits
