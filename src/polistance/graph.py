"""Interaction graphs, modularity, Louvain communities, and party labeling.

The interaction graph is undirected and simple: an edge says one user
retweeted or mentioned another at least once, and repeat interactions add
no parallel edges (a weighted mode exists behind a flag). A graph holds its
sorted node names once; each edge is an int32 id into those names at either
end and a float64 weight, so a held edge costs 16 bytes and no Python
object. Ids follow sorted names, so edges sorted by ids are sorted by
names. Communities come from Louvain modularity maximization (Blondel et
al. 2008) on those arrays, with the fast local move of Traag, Waltman and
van Eck (2019):
every node starts queued in a seeded order, and when a node moves, only
its neighbors outside its new community are queued again. Results are
reproducible for a given seed. An emptied queue does not make a level
stable, because moves elsewhere change community totals; so after the
move/aggregate cycle converges, the cycle restarts from the original
nodes, all queued, until such a pass moves none. That last pass visited
every node without a move, which makes the final partition stable under
every single-node move. Each level holds each undirected edge once, and
the base level holds the graph's own arrays. The two directions that the
local move walks exist only as one flat run of neighbor ids per level,
every node's neighbors end to end with an offset per node, and a level
whose every weight is 1 (the base level of an unweighted graph) holds no
weights for them.

Detected communities are labeled with the plurality party among their
known members (seed accounts or annotated users); ties, communities with
no known member and communities below a size threshold stay unnamed.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Tweet
from .metrics import EvalReport

__all__ = [
    "CommunityEval",
    "GraphError",
    "InteractionFold",
    "InteractionGraph",
    "Partition",
    "build_interaction_graph",
    "community_classify",
    "label_communities",
    "louvain",
    "modularity",
    "write_edges",
    "write_partition",
]

_SEED_MASK = (1 << 64) - 1
_LOUVAIN_STREAM = 5015
_GAIN_EPS = 1e-12
_CHUNK = 1 << 16
# the weight of every edge on a level whose weights are all 1
_UNIT = repeat(1.0)
# a community below this share of all nodes is too small to name a party
_MIN_SIZE_FRACTION = 0.0005


class GraphError(ValueError):
    """Raised for invalid graph inputs."""


class InteractionGraph:
    """Simple undirected graph over node names, held as id arrays.

    Edge ``i`` joins ``nodes[heads[i]]`` and ``nodes[tails[i]]`` with
    weight ``weights[i]``; unweighted graphs carry all-ones. The arrays
    are read-only. The builders give sorted nodes and edges sorted by
    (head, tail) with ``head < tail``, through ``from_keys``; the
    constructor converts name pairs and float weights once.
    """

    __slots__ = ("nodes", "heads", "tails", "weights")

    def __init__(
        self,
        nodes: Sequence[str],
        edges: Sequence[tuple[str, str]],
        weights: Sequence[float],
    ) -> None:
        index = {node: i for i, node in enumerate(nodes)}
        try:
            heads = np.fromiter((index[a] for a, _ in edges), dtype=np.int32,
                                count=len(edges))
            tails = np.fromiter((index[b] for _, b in edges), dtype=np.int32,
                                count=len(edges))
        except KeyError as exc:
            raise GraphError(f"edge endpoint {exc.args[0]!r} is not a node") from None
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != heads.shape:
            raise GraphError(f"{weights.size} weights for {heads.size} edges")
        self._hold(tuple(nodes), heads, tails, weights)

    @classmethod
    def from_keys(cls, nodes: tuple[str, ...], keys: np.ndarray,
                  weights: np.ndarray) -> "InteractionGraph":
        """The graph whose edge ``i`` has key ``head * len(nodes) + tail``."""
        graph = cls.__new__(cls)
        n = len(nodes)
        graph._hold(nodes, (keys // n).astype(np.int32), (keys % n).astype(np.int32),
                    weights)
        return graph

    def _hold(self, nodes, heads, tails, weights) -> None:
        self.nodes = nodes
        self.heads, self.tails, self.weights = heads, tails, weights
        for values in (heads, tails, weights):
            values.flags.writeable = False

    @property
    def m(self) -> int:
        return int(self.heads.size)

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionGraph):
            return NotImplemented
        return self.nodes == other.nodes and all(
            np.array_equal(mine, theirs) for mine, theirs in (
                (self.heads, other.heads), (self.tails, other.tails),
                (self.weights, other.weights)))


class InteractionFold:
    """Retweet and mention pairs, taken one tweet at a time.

    A sink for ``parse_corpus``: ``append`` folds a tweet in, ``len`` counts
    the tweets seen, and ``build_interaction_graph(fold)`` gives their graph.
    Each name is looked up in one dict and each event is kept as two C ints,
    never as a Python pair, so no tweet is held.
    """

    __slots__ = ("_index", "_authors", "_targets", "_tweets")

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._authors, self._targets = array("i"), array("i")
        self._tweets = 0

    def append(self, tweet: Tweet) -> None:
        self._tweets += 1
        author = tweet.author_screen_name
        others = tweet.mentions
        if tweet.retweet_of is not None:
            others = (tweet.retweet_of, *others)
        index = self._index
        for other in others:
            if other != author:
                self._authors.append(index.setdefault(author, len(index)))
                self._targets.append(index.setdefault(other, len(index)))

    def __len__(self) -> int:
        return self._tweets

    def mark(self) -> int:
        """The number of pairs held: where the next tweet's pairs begin."""
        return len(self._authors)

    def take(self) -> tuple[str, tuple[array, array]]:
        """Empty this fold, filled in a forked worker, and return what it
        held as ``merge`` takes it: the names in first-seen order, one a
        line (no name holds whitespace), and the buffers of the pairs' name
        ids."""
        held = "\n".join(self._index), (self._authors, self._targets)
        self._index, self._authors, self._targets = {}, array("i"), array("i")
        self._tweets = 0
        return held

    def merge(self, names: str, buffers: Sequence[bytes], ends: np.ndarray,
              dropped: Sequence[int]) -> None:
        """Fold in the tweets that another fold's ``take`` returned, as
        ``append`` took them there, but those at the indices in
        ``dropped``. Tweet ``i`` holds the pairs from ``ends[i - 1]`` (0 for
        the first) to ``ends[i]``, its ``mark()`` after it; pairs past the
        last end are left out. Names keep the first-seen order that
        appending the kept tweets here would give."""
        kept = int(ends[-1]) if len(ends) else 0
        authors, targets = (np.frombuffer(buffer, dtype=np.intc)[:kept] for buffer in buffers)
        if dropped:
            keep = np.ones(kept, dtype=bool)
            for i in dropped:
                keep[(ends[i - 1] if i else 0):ends[i]] = False
            authors, targets = authors[keep], targets[keep]
            # a dropped tweet may have been the first to name someone
            ids, first = np.unique(np.column_stack((authors, targets)), return_index=True)
            order = ids[np.argsort(first)].tolist()
        else:
            # ids count up in first-seen order, so the kept ones are a prefix
            order = range(max(authors.max(), targets.max()) + 1 if kept else 0)
        names = names.split("\n")
        index = self._index
        ids = np.zeros(len(names), dtype=np.intc)
        ids[order] = [index.setdefault(names[local], len(index)) for local in order]
        # the mapped ids go in as a view of their bytes, not a bytes copy
        self._authors.frombytes(ids[authors].data.cast("B"))
        self._targets.frombytes(ids[targets].data.cast("B"))
        self._tweets += len(ends) - len(dropped)


def build_interaction_graph(fold: InteractionFold,
                            weighted: bool = False) -> InteractionGraph:
    """The simple undirected graph of the fold's retweet and mention pairs.
    With ``weighted`` an edge weighs its number of events instead of 1."""
    index = fold._index
    # renumber the first-seen ids so that ids follow sorted names
    nodes = tuple(sorted(index))
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[[index[node] for node in nodes]] = np.arange(len(nodes))
    a = rank[np.frombuffer(fold._authors, dtype=np.intc)]
    b = rank[np.frombuffer(fold._targets, dtype=np.intc)]
    keys, counts = np.unique(np.minimum(a, b) * len(nodes) + np.maximum(a, b),
                             return_counts=True)
    weights = counts.astype(np.float64) if weighted else np.ones(keys.size)
    return InteractionGraph.from_keys(nodes, keys, weights)


@dataclass(frozen=True)
class Partition:
    """A community assignment together with its modularity score."""

    assignment: Mapping[str, int]
    modularity_q: float

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))


def modularity(graph: InteractionGraph, assignment: Mapping[str, int]) -> float:
    """Newman modularity Q = sum_c [ e_c/m - (d_c/2m)^2 ], as Louvain reports it.

    ``e_c`` counts intra-community edge weight, ``d_c`` sums community
    strengths, ``m`` is the total edge weight; with unit weights this is
    the standard unweighted formula.
    """
    if graph.m == 0:
        raise GraphError("modularity undefined on an empty graph")
    missing = [node for node in graph.nodes if node not in assignment]
    if missing:
        raise GraphError(f"assignment misses {len(missing)} nodes, e.g. {missing[0]!r}")
    ids = np.fromiter((assignment[node] for node in graph.nodes), dtype=np.int64,
                      count=len(graph.nodes))
    return _Level.from_graph(graph).modularity(_dense(ids), graph.total_weight())


def _sum_duplicates(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each unordered pair ``{a[i], b[i]}`` of ids below ``n`` once, as
    (smaller id, larger id), sorted, with its summed weight.

    Pairs already in that shape, as at the base level of every built
    graph, are returned as they are, not copied. Otherwise each temporary
    is released before the next is made.
    """
    steps = np.diff(a)
    if np.all(a < b) and np.all((steps > 0) | ((steps == 0) & (np.diff(b) > 0))):
        return a, b, weights
    del steps
    heads, tails = np.minimum(a, b), np.maximum(a, b)
    keys = heads.astype(np.int64) * n + tails
    del heads, tails
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    weights = weights[order]
    del order
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    weights = np.add.reduceat(weights, starts)
    keys = keys[starts]
    del starts
    return (keys // n).astype(np.int32), (keys % n).astype(np.int32), weights


@dataclass(frozen=True)
class _Level:
    """One level of the move/aggregate cycle: a weighted graph with loops.

    ``heads``, ``tails`` and ``weights`` hold each undirected edge once,
    with ``head < tail``, sorted by (head, tail), as ``InteractionGraph``
    does. The internal weight of a supernode sits in ``loops`` and counts
    twice in ``strength``.
    """

    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray
    loops: np.ndarray
    strength: np.ndarray

    @classmethod
    def from_graph(cls, graph: InteractionGraph) -> "_Level":
        """The base level of a graph's id arrays; loops, reversed and
        repeated pairs allowed."""
        a, b, w, n = graph.heads, graph.tails, graph.weights, len(graph.nodes)
        loop = a == b
        loops = np.bincount(a[loop], w[loop], minlength=n)
        strength = np.bincount(a, w, minlength=n) + np.bincount(b, w, minlength=n)
        if loop.any():
            a, b, w = a[~loop], b[~loop], w[~loop]
        return cls(*_sum_duplicates(a, b, w, n), loops=loops, strength=strength)

    @property
    def n(self) -> int:
        return self.loops.size

    def neighbor_lists(self) -> tuple[array, array, array | None]:
        """Every node's neighbor ids, ascending, end to end, for ``_move_nodes``.

        Returns ``(adj, starts, weights)``: node ``v``'s neighbors are
        ``adj[starts[v]:starts[v + 1]]``, first its smaller ones (the heads
        of the edges whose tail it is), then its larger ones (its own run
        of ``tails``). ``weights`` holds their edge weights in the same
        order, or is None when every weight is 1. Both directions exist
        only here, filled in place through numpy views with int32
        positions (int64 past 2**31 entries), so no Python int is made per
        entry.
        """
        n, m = self.n, self.heads.size
        index = np.int32 if 2 * m <= np.iinfo(np.int32).max else np.int64
        below = np.bincount(self.tails, minlength=n)
        above = np.bincount(self.heads, minlength=n)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(below + above, out=starts[1:])
        # edge i sits after the i larger neighbors before it and every
        # smaller neighbor of the nodes up to its head
        larger = np.arange(m, dtype=index)
        larger += np.cumsum(below).astype(index)[self.heads]
        # the j-th edge by tail sits after the j smaller neighbors before it
        # and every larger neighbor of the nodes before its tail
        order = np.argsort(self.tails, kind="stable").astype(index)
        smaller = np.arange(m, dtype=index)
        smaller += (np.cumsum(above) - above).astype(index)[self.tails[order]]
        adj = array("i", [0]) * (2 * m)
        view = np.frombuffer(adj, dtype=np.intc)
        view[larger] = self.tails
        view[smaller] = self.heads[order]
        weights = None
        if not np.all(self.weights == 1.0):
            weights = array("d", [0.0]) * (2 * m)
            view = np.frombuffer(weights, dtype=np.float64)
            view[larger] = self.weights
            view[smaller] = self.weights[order]
        return adj, array("q", starts.tobytes()), weights

    def aggregate(self, community: np.ndarray) -> "_Level":
        """Collapse dense community ids into supernodes."""
        n_next = int(community.max()) + 1
        cu, cv = community[self.heads], community[self.tails]
        inside = cu == cv
        loops = (np.bincount(community, self.loops, minlength=n_next)
                 + np.bincount(cu[inside], self.weights[inside], minlength=n_next))
        between = ~inside
        return _Level(*_sum_duplicates(cu[between], cv[between], self.weights[between], n_next),
                      loops=loops,
                      strength=np.bincount(community, self.strength, minlength=n_next))

    def modularity(self, community: np.ndarray, total: float) -> float:
        """Q = sum_c [e_c/m - (d_c/2m)^2] of dense ids; the one Q formula."""
        cu = community[self.heads]
        inside = cu == community[self.tails]
        degree = np.bincount(community, self.strength)
        intra = (np.bincount(cu[inside], self.weights[inside], minlength=degree.size)
                 + np.bincount(community, self.loops))
        return float(np.sum(intra / total - (degree / (2.0 * total)) ** 2))


def _move_nodes(
    adj: array,
    starts: array,
    weights: array | None,
    strength: list[float],
    total_weight: float,
    community: list[int],
    order: list[int],
) -> bool:
    """Greedy single-node moves driven by a queue; True if anything moved.

    ``adj``, ``starts`` and ``weights`` are a level's ``neighbor_lists``;
    each visit slices its node's run, so neighbors are summed in the same
    order on every visit. Every node starts queued, in ``order``. A node
    moves to the neighboring community with the best modularity gain;
    ties keep the current community, then prefer the smallest community
    id, which pins the outcome for a fixed visit order. When a node moves,
    its neighbors outside its new community are queued again (if not
    queued already), so the loop ends when a visit of every queued node
    moves nothing.
    """
    n = len(community)
    sigma = [0.0] * n
    for node, c in enumerate(community):
        sigma[c] += strength[node]
    links = [0.0] * n  # link weight from the visited node to each community

    two_w = 2.0 * total_weight
    queue = deque(order)
    queued = [True] * n
    moved = False
    while queue:
        node = queue.popleft()
        queued[node] = False
        home = community[node]
        touched = []
        lo, hi = starts[node], starts[node + 1]
        node_neighbors = adj[lo:hi]
        node_weights = _UNIT if weights is None else weights[lo:hi]
        for neighbor, w in zip(node_neighbors, node_weights):
            c = community[neighbor]
            if links[c] == 0.0:
                touched.append(c)  # repeats are harmless
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
    """Community ids renumbered 0..k-1, keeping their order."""
    return np.unique(community, return_inverse=True)[1].astype(np.int32)


def _communities(base: _Level, total: float, rng: np.random.Generator) -> np.ndarray:
    """Dense community id per base node, from the move/aggregate cycle.

    The cycle restarts from the base level until a local-moving pass over
    base nodes, which starts with every node queued, moves none; so the
    result is stable under every single-node move.
    """
    base_neighbors = base.neighbor_lists()
    base_strength = base.strength.tolist()
    membership = np.arange(base.n, dtype=np.int32)
    while True:
        community = membership.tolist()
        moved = _move_nodes(*base_neighbors, base_strength, total,
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
    """Seeded modularity maximization; community ids ordered by size.

    The move/aggregate cycle restarts from the original graph until a
    local-moving pass over original nodes finds nothing to improve.
    Community ids are dense, ordered by decreasing size with ties going to
    the community holding the lexicographically smallest node. Unit and
    integer weights (the event counts of a weighted graph) sum exactly, so
    Q does not depend on the order of summation; with other float weights
    it can move in the last bit when that order changes.
    """
    if graph.m == 0:
        raise GraphError("cannot detect communities in an empty graph")

    base = _Level.from_graph(graph)
    total = graph.total_weight()
    rng = np.random.default_rng((rng_seed & _SEED_MASK, _LOUVAIN_STREAM))
    membership = _communities(base, total, rng)

    # final ids: decreasing size, ties to the community with the smallest node
    sizes = np.bincount(membership)
    first = np.unique(membership, return_index=True)[1]
    relabel = np.empty_like(sizes)
    relabel[np.lexsort((first, -sizes))] = np.arange(sizes.size)
    final = relabel[membership]
    return Partition(assignment=dict(zip(graph.nodes, final.tolist())),
                     modularity_q=base.modularity(final, total))


def label_communities(partition: Partition, known: Mapping[str, str]) -> dict[int, str]:
    """Party of each named community: the plurality of its known members.

    Communities smaller than ``_MIN_SIZE_FRACTION`` (0.05%) of all nodes,
    with no known members, or with a tied plurality stay out of the map.
    """
    if not known:
        raise GraphError("no known node labels supplied")
    sizes = Counter(partition.assignment.values())
    votes: dict[int, Counter[str]] = {}
    for node, party in known.items():
        community = partition.assignment.get(node)
        if community is not None:
            votes.setdefault(community, Counter())[party] += 1

    labels: dict[int, str] = {}
    for community, tally in votes.items():
        ranked = tally.most_common(2)
        if (sizes[community] / len(partition.assignment) >= _MIN_SIZE_FRACTION
                and (len(ranked) == 1 or ranked[0][1] > ranked[1][1])):
            labels[community] = ranked[0][0]
    if not labels:
        raise GraphError("no labelable community (all below threshold or unknown)")
    return labels


@dataclass(frozen=True)
class CommunityEval:
    """Evaluation of community-predicted parties against known truth."""

    report: EvalReport
    coverage: float
    n_missing: int
    n_unlabeled: int


def community_classify(
    partition: Partition,
    labels: Mapping[int, str],
    truth: Mapping[str, str],
) -> CommunityEval:
    """Score community labels against per-user truth.

    Truth users missing from the graph, or sitting in a community that
    ``labels`` does not name, are excluded from the confusion matrix and
    reported via ``coverage`` = evaluated / truth.
    """
    if not truth:
        raise GraphError("empty truth mapping")
    pairs: list[tuple[str, str]] = []
    n_missing = 0
    n_unlabeled = 0
    for user in sorted(truth):
        community = partition.assignment.get(user)
        if community is None:
            n_missing += 1
            continue
        predicted = labels.get(community)
        if predicted is None:
            n_unlabeled += 1
            continue
        pairs.append((truth[user], predicted))
    if not pairs:
        raise GraphError("no truth user falls in a labeled community")

    return CommunityEval(
        report=EvalReport.from_pairs(*zip(*pairs)),
        coverage=len(pairs) / len(truth),
        n_missing=n_missing,
        n_unlabeled=n_unlabeled,
    )


def write_edges(graph: InteractionGraph, path: str | Path) -> None:
    """One "nodeA nodeB" line per edge, sorted, lowercase; the weight is
    appended to every line when some edge weighs other than 1, so a weighted
    graph whose every pair occurred once is written as two columns."""
    weighted = bool(np.any(graph.weights != 1.0))
    nodes = graph.nodes
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for start in range(0, graph.m, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            ends = zip(graph.heads[chunk].tolist(), graph.tails[chunk].tolist())
            if weighted:
                handle.writelines(f"{nodes[a]} {nodes[b]} {w:g}\n" for (a, b), w
                                  in zip(ends, graph.weights[chunk].tolist()))
            else:
                handle.writelines(f"{nodes[a]} {nodes[b]}\n" for a, b in ends)


def write_partition(partition: Partition, path: str | Path) -> None:
    """Header "modularity <Q to 6 decimals>", then "node community_id" lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"modularity {partition.modularity_q:.6f}\n")
        for node in sorted(partition.assignment):
            handle.write(f"{node} {partition.assignment[node]}\n")
