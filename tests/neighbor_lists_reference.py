"""A frozen copy of ``graph._Level.neighbor_lists`` from before Louvain
walked each level as one flat run of neighbor ids.

This reference gives every node its own tuple of neighbor ids and its own
tuple of edge weights. The differential test in ``tests/test_graph.py``
requires each node's run of the live ``adj`` and its weights to equal
these tuples. Do not edit the code below to follow the live module; it is
the fixed point the live module is checked against.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

_CHUNK = 1 << 16


def _shared(values: np.ndarray) -> Iterator:
    """The values as Python objects, one object per distinct value."""
    distinct = np.unique(values, return_counts=True)[0]
    pool = distinct.tolist()
    for start in range(0, values.size, _CHUNK):
        positions = np.searchsorted(distinct, values[start:start + _CHUNK])
        yield from map(pool.__getitem__, positions.tolist())


def neighbor_lists(level) -> tuple[list[tuple[int, ...]], list[tuple[float, ...]]]:
    """Per-node neighbor ids, ascending, and edge weights, of a ``_Level``."""
    rows = np.r_[level.tails, level.heads]
    order = np.argsort(rows, kind="stable")
    degrees = np.bincount(rows, minlength=level.n).tolist()
    del rows
    ids = _shared(np.r_[level.heads, level.tails][order])
    neighbors = [tuple(islice(ids, d)) for d in degrees]
    if np.all(level.weights == 1.0):
        ones = {d: (1.0,) * d for d in set(degrees)}
        return neighbors, [ones[d] for d in degrees]
    weights = _shared(np.r_[level.weights, level.weights][order])
    return neighbors, [tuple(islice(weights, d)) for d in degrees]
