"""A frozen copy of ``graph.louvain`` and ``graph.modularity`` from before
Louvain held each undirected edge once.

This reference stores every edge in both directions, sorts both directions
on every level and gives each node its own list of weights. The
differential oracle in ``tests/test_graph.py`` runs the live code and this
copy on the same graphs: partitions and Q must be equal exactly for unit
and integer weights, and Q within 1e-12 for other weights, whose sums may
round differently. Do not edit the code below to follow the live module;
it is the fixed point the live module is checked against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from polistance.graph import GraphError, InteractionGraph, Partition

_SEED_MASK = (1 << 64) - 1
_LOUVAIN_STREAM = 5015
_GAIN_EPS = 1e-12
_CHUNK = 1 << 16


def modularity(graph: InteractionGraph, assignment: Mapping[str, int]) -> float:
    if graph.m == 0:
        raise GraphError("modularity undefined on an empty graph")
    missing = [node for node in graph.nodes if node not in assignment]
    if missing:
        raise GraphError(f"assignment misses {len(missing)} nodes, e.g. {missing[0]!r}")
    ids = np.fromiter((assignment[node] for node in graph.nodes), dtype=np.int64,
                      count=len(graph.nodes))
    return _Level.from_graph(graph).modularity(_dense(ids), graph.total_weight())


def _sum_duplicates(
    keys: np.ndarray, weights: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if keys.size == 0:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, weights
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    weights = weights[order]
    del order
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    weights = np.add.reduceat(weights, starts)
    keys = keys[starts]
    del starts
    return (keys // n).astype(np.int32), (keys % n).astype(np.int32), weights


def _shared(values: np.ndarray) -> Iterator:
    distinct = np.unique(values, return_counts=True)[0]
    pool = distinct.tolist()
    for start in range(0, values.size, _CHUNK):
        positions = np.searchsorted(distinct, values[start:start + _CHUNK])
        yield from map(pool.__getitem__, positions.tolist())


@dataclass(frozen=True)
class _Level:
    """``rows``, ``cols`` and ``weights`` hold each edge in both directions."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    loops: np.ndarray
    strength: np.ndarray

    @classmethod
    def from_graph(cls, graph: InteractionGraph) -> "_Level":
        a, b, w, n = graph.heads, graph.tails, graph.weights, len(graph.nodes)
        loop = a == b
        loops = np.bincount(a[loop], w[loop], minlength=n)
        strength = np.bincount(a, w, minlength=n) + np.bincount(b, w, minlength=n)
        a, b, w = a[~loop].astype(np.int64), b[~loop].astype(np.int64), w[~loop]
        return cls(*_sum_duplicates(np.r_[a * n + b, b * n + a], np.r_[w, w], n),
                   loops=loops, strength=strength)

    @property
    def n(self) -> int:
        return self.loops.size

    def neighbor_lists(self) -> tuple[list[list[int]], list[list[float]]]:
        ids, weights = _shared(self.cols), _shared(self.weights)
        degrees = np.bincount(self.rows, minlength=self.n).tolist()
        return ([list(islice(ids, d)) for d in degrees],
                [list(islice(weights, d)) for d in degrees])

    def aggregate(self, community: np.ndarray) -> "_Level":
        n_next = int(community.max()) + 1
        cu, cv = community[self.rows], community[self.cols]
        inside = cu == cv
        once = inside & (self.rows < self.cols)
        loops = (np.bincount(community, self.loops, minlength=n_next)
                 + np.bincount(cu[once], self.weights[once], minlength=n_next))
        between = ~inside
        return _Level(*_sum_duplicates(cu[between].astype(np.int64) * n_next + cv[between],
                                       self.weights[between], n_next),
                      loops=loops,
                      strength=np.bincount(community, self.strength, minlength=n_next))

    def modularity(self, community: np.ndarray, total: float) -> float:
        cu = community[self.rows]
        inside = cu == community[self.cols]
        degree = np.bincount(community, self.strength)
        intra = (np.bincount(cu[inside], self.weights[inside], minlength=degree.size) / 2.0
                 + np.bincount(community, self.loops))
        return float(np.sum(intra / total - (degree / (2.0 * total)) ** 2))


def _move_nodes(neighbors, weights, strength, total_weight, community, order) -> bool:
    n = len(community)
    sigma = [0.0] * n
    for node, c in enumerate(community):
        sigma[c] += strength[node]
    links = [0.0] * n

    two_w = 2.0 * total_weight
    queue = deque(order)
    queued = [True] * n
    moved = False
    while queue:
        node = queue.popleft()
        queued[node] = False
        home = community[node]
        touched = []
        node_neighbors = neighbors[node]
        for neighbor, w in zip(node_neighbors, weights[node]):
            c = community[neighbor]
            if links[c] == 0.0:
                touched.append(c)
            links[c] += w
        k = strength[node]
        sigma[home] -= strength[node]
        best_c = home
        best_gain = links[home] - k * sigma[home] / two_w
        touched.sort()
        for c in touched:
            if c != home:
                gain = links[c] - k * sigma[c] / two_w
                if gain > best_gain + _GAIN_EPS:
                    best_gain = gain
                    best_c = c
            links[c] = 0.0
        sigma[best_c] += strength[node]
        if best_c != home:
            community[node] = best_c
            moved = True
            for neighbor in node_neighbors:
                if not queued[neighbor] and community[neighbor] != best_c:
                    queued[neighbor] = True
                    queue.append(neighbor)
    return moved


def _dense(community) -> np.ndarray:
    return np.unique(community, return_inverse=True)[1].astype(np.int32)


def _communities(base: _Level, total: float, rng: np.random.Generator) -> np.ndarray:
    base_neighbors, base_weights = base.neighbor_lists()
    base_strength = base.strength.tolist()
    membership = np.arange(base.n, dtype=np.int32)
    while True:
        community = membership.tolist()
        moved = _move_nodes(base_neighbors, base_weights, base_strength, total,
                            community, rng.permutation(base.n).tolist())
        membership = _dense(community)
        if not moved:
            return membership

        level = base.aggregate(membership)
        while True:
            agg_community = list(range(level.n))
            moved_agg = _move_nodes(
                *level.neighbor_lists(), level.strength.tolist(), total,
                agg_community, rng.permutation(level.n).tolist(),
            )
            if not moved_agg:
                break
            agg = _dense(agg_community)
            membership = agg[membership]
            level = level.aggregate(agg)


def louvain(graph: InteractionGraph, rng_seed: int = 0) -> Partition:
    if graph.m == 0:
        raise GraphError("cannot detect communities in an empty graph")

    base = _Level.from_graph(graph)
    total = graph.total_weight()
    rng = np.random.default_rng((rng_seed & _SEED_MASK, _LOUVAIN_STREAM))
    membership = _communities(base, total, rng)

    sizes = np.bincount(membership)
    first = np.unique(membership, return_index=True)[1]
    relabel = np.empty_like(sizes)
    relabel[np.lexsort((first, -sizes))] = np.arange(sizes.size)
    final = relabel[membership]
    return Partition(assignment=dict(zip(graph.nodes, final.tolist())),
                     modularity_q=base.modularity(final, total))
