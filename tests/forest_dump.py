"""A forest as plain json, for tests that pin every tree by digest.

The dump keeps the keys of format version 1, in which ``max_depth``,
``features_per_split`` and ``min_leaf`` were parameters. Trees now always
grow to full size with ceil(sqrt(d)) features a split and leaves of one
row, which is what those keys held at their defaults (None, None, 1), so a
digest taken when they were parameters still pins the same trees. A forest
does not keep the seed it was trained with, so the caller passes it.
"""

import hashlib
import json

from polistance.forest import Forest

_FORMAT_VERSION = 1


def forest_to_dict(forest: Forest, rng_seed: int) -> dict:
    return {
        "format_version": _FORMAT_VERSION,
        "classes": list(forest.classes),
        "n_features": forest.n_features,
        "params": {
            "n_trees": len(forest.trees),
            "max_depth": None,
            "features_per_split": None,
            "min_leaf": 1,
            "rng_seed": rng_seed,
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


def forest_digest(forest: Forest, rng_seed: int) -> str:
    dump = json.dumps(forest_to_dict(forest, rng_seed), sort_keys=True)
    return hashlib.sha256(dump.encode()).hexdigest()
