"""Tests for interaction graphs, modularity, Louvain, and community labels."""

import hashlib
import math
import tracemalloc
from array import array
from collections import Counter
from datetime import datetime, timezone
from itertools import repeat

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import neighbor_lists_reference
from interactions import graph_of
import polistance.graph as graph_module
from polistance.corpus import Tweet
from polistance.graph import (
    GraphError,
    InteractionFold,
    InteractionGraph,
    Partition,
    build_interaction_graph,
    community_classify,
    label_communities,
    louvain,
    modularity,
    write_edges,
    write_partition,
)
from polistance.features import PARTIES
from polistance.graph import _Level
from polistance.pipeline import RunConfig, run
from polistance.synth import SyntheticSpec, planted_partition_graph, write_synthetic

UTC = timezone.utc


def name_pairs(graph):
    """The two node names of each edge, read from its ids."""
    return [(graph.nodes[a], graph.nodes[b])
            for a, b in zip(graph.heads.tolist(), graph.tails.tolist())]


def make_graph(edges, nodes=None):
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    if nodes is None:
        nodes = tuple(sorted({x for e in edges for x in e}))
    return InteractionGraph(nodes=tuple(nodes), edges=edges,
                            weights=(1.0,) * len(edges))


# 6-node bridge: triangle abc joined to triangle def by edge c-d
BRIDGE = make_graph(
    [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"),
     ("d", "e"), ("d", "f"), ("e", "f")]
)
BRIDGE_SPLIT = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}


def partition_of(graph, assignment):
    return Partition(dict(assignment), modularity(graph, assignment))


def oracle_q(graph: InteractionGraph, assignment) -> float:
    """Adjacency-matrix modularity, written independently of the package.

    Q = (1/2m) * sum_ij (A_ij - k_i k_j / 2m) [c_i == c_j], with A built
    as a dense symmetric matrix.
    """
    nodes = list(graph.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for (a, b), w in zip(name_pairs(graph), graph.weights):
        A[idx[a], idx[b]] += w
        A[idx[b], idx[a]] += w
    k = A.sum(axis=1)
    two_m = k.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[nodes[i]] == assignment[nodes[j]]:
                q += A[i, j] - k[i] * k[j] / two_m
    return q / two_m


def planted(seed, sizes, p_in, p_out, weighted=False):
    """A planted-partition graph; ``weighted`` gives integer weights 1-4,
    like the event counts of a weighted ``build_interaction_graph``."""
    graph, blocks = planted_partition_graph(sizes, p_in, p_out, rng_seed=seed)
    if weighted:
        counts = np.random.default_rng(seed).integers(1, 5, graph.m)
        graph = InteractionGraph(nodes=graph.nodes, edges=name_pairs(graph),
                                 weights=counts.tolist())
    return graph, blocks


def assert_single_move_local_maximum(graph, part):
    """No node moves to another community, or a fresh one, and raises Q."""
    q0 = modularity(graph, part.assignment)
    fresh = max(part.assignment.values()) + 1
    targets = set(part.assignment.values()) | {fresh}
    for node in graph.nodes:
        for target in targets - {part.assignment[node]}:
            moved = dict(part.assignment)
            moved[node] = target
            assert modularity(graph, moved) <= q0 + 1e-9, (node, target)


def set_partitions(items):
    """All ways to split ``items`` into nonempty unordered blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


class TestModularity:
    def test_bridge_split_is_5_14(self):
        assert modularity(BRIDGE, BRIDGE_SPLIT) == pytest.approx(5 / 14, abs=1e-12)

    def test_single_community_is_exactly_zero(self):
        assert modularity(BRIDGE, {v: 0 for v in BRIDGE.nodes}) == 0.0

    def test_triangle_singletons(self):
        tri = make_graph([("x", "y"), ("y", "z"), ("x", "z")])
        q = modularity(tri, {"x": 0, "y": 1, "z": 2})
        assert q == pytest.approx(-1 / 3, abs=1e-12)

    def test_matches_oracle_on_all_203_partitions(self):
        parts = list(set_partitions(list(BRIDGE.nodes)))
        assert len(parts) == 203
        best_q = -math.inf
        best = None
        for blocks in parts:
            assignment = {v: i for i, block in enumerate(blocks) for v in block}
            q = modularity(BRIDGE, assignment)
            assert q == pytest.approx(oracle_q(BRIDGE, assignment), abs=1e-12)
            if q > best_q:
                best_q = q
                best = sorted(tuple(sorted(b)) for b in blocks)
        assert best_q == pytest.approx(5 / 14, abs=1e-12)
        assert best == [("a", "b", "c"), ("d", "e", "f")]

    def test_relabeling_communities_changes_nothing(self):
        renamed = {v: {0: 7, 1: 3}[c] for v, c in BRIDGE_SPLIT.items()}
        assert modularity(BRIDGE, renamed) == modularity(BRIDGE, BRIDGE_SPLIT)

    def test_missing_node_rejected(self):
        with pytest.raises(GraphError, match="misses"):
            modularity(BRIDGE, {"a": 0})

    def test_empty_graph_rejected(self):
        empty = InteractionGraph(nodes=(), edges=(), weights=())
        with pytest.raises(GraphError):
            modularity(empty, {})

    @given(seed=st.integers(0, 10_000), assign_seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_graphs(self, seed, assign_seed):
        graph, _ = planted_partition_graph([6, 5, 4], 0.6, 0.2, rng_seed=seed)
        if graph.m == 0:
            return
        rng = np.random.default_rng(assign_seed)
        assignment = {v: int(rng.integers(0, 4)) for v in graph.nodes}
        assert modularity(graph, assignment) == pytest.approx(
            oracle_q(graph, assignment), abs=1e-12
        )

    def test_weighted_graph_against_oracle(self):
        g = InteractionGraph(
            nodes=("a", "b", "c", "d"),
            edges=(("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")),
            weights=(2.0, 1.0, 3.0, 0.5),
        )
        assignment = {"a": 0, "b": 0, "c": 0, "d": 1}
        assert modularity(g, assignment) == pytest.approx(
            oracle_q(g, assignment), abs=1e-12
        )


class TestLouvain:
    def test_bridge_attained_on_at_least_95_of_100_seeds(self):
        hits = sum(
            abs(louvain(BRIDGE, rng_seed=s).modularity_q - 5 / 14) <= 1e-12
            for s in range(100)
        )
        assert hits >= 95

    def test_bridge_partition_is_the_two_triangles(self):
        comm = louvain(BRIDGE, rng_seed=0).assignment
        assert sorted(comm) == ["a", "b", "c", "d", "e", "f"]
        assert comm["a"] == comm["b"] == comm["c"] != comm["d"] == comm["e"] == comm["f"]

    def test_two_cliques_with_bridge(self):
        edges = [(f"u{i}", f"u{j}") for i in range(5) for j in range(i + 1, 5)]
        edges += [(f"v{i}", f"v{j}") for i in range(5) for j in range(i + 1, 5)]
        edges.append(("u0", "v0"))
        part = louvain(make_graph(edges), rng_seed=3)
        assert part.n_communities == 2
        assert len({part.assignment[f"u{i}"] for i in range(5)}) == 1
        assert len({part.assignment[f"v{i}"] for i in range(5)}) == 1

    def test_community_ids_ordered_by_size(self):
        # 4-clique plus a separate triangle: big community gets id 0
        edges = [(f"a{i}", f"a{j}") for i in range(4) for j in range(i + 1, 4)]
        edges += [("b0", "b1"), ("b1", "b2"), ("b0", "b2")]
        part = louvain(make_graph(edges), rng_seed=0)
        sizes = Counter(part.assignment.values())
        assert sizes[0] == 4 and sizes[1] == 3
        assert part.assignment["a0"] == 0

    def test_deterministic_for_equal_seeds(self):
        g, _ = planted_partition_graph([20, 20, 20], 0.4, 0.02, rng_seed=5)
        assert louvain(g, rng_seed=9) == louvain(g, rng_seed=9)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_never_below_trivial_baselines(self, seed):
        graph, _ = planted_partition_graph([8, 7, 6], 0.5, 0.15, rng_seed=seed)
        if graph.m == 0:
            return
        part = louvain(graph, rng_seed=seed)
        singletons = {v: i for i, v in enumerate(graph.nodes)}
        assert part.modularity_q >= modularity(graph, singletons) - 1e-12
        assert part.modularity_q >= 0.0 - 1e-12  # one-community baseline

    def test_result_is_a_single_move_local_maximum(self):
        graph, _ = planted_partition_graph([20, 20, 20], 0.35, 0.03, rng_seed=11)
        assert_single_move_local_maximum(graph, louvain(graph, rng_seed=11))

    @given(seed=st.integers(0, 10_000),
           sizes=st.lists(st.integers(2, 8), min_size=1, max_size=4),
           weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_planted_graphs_exact_q_stable_and_reproducible(self, seed, sizes, weighted):
        graph, _ = planted(seed, sizes, 0.6, 0.1, weighted)
        assume(graph.m > 0)
        part = louvain(graph, rng_seed=seed)
        assert part.modularity_q == modularity(graph, part.assignment)
        assert_single_move_local_maximum(graph, part)
        counts = Counter(part.assignment.values())
        sizes_by_id = [counts[c] for c in range(part.n_communities)]
        assert sizes_by_id == sorted(sizes_by_id, reverse=True)
        assert louvain(graph, rng_seed=seed) == part

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            louvain(InteractionGraph(nodes=(), edges=(), weights=()))


def aggregate(graph, membership):
    base = _Level.from_graph(graph)
    return base.aggregate(np.asarray(membership))


def singleton_q(level, total):
    """Q of the aggregated graph with every supernode its own community."""
    return sum(loop / total - (strength / (2.0 * total)) ** 2
               for loop, strength in zip(level.loops, level.strength))


class TestAggregation:
    """Collapsing a partition into supernodes must keep its modularity."""

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6),
           weighted=st.booleans(), n_loops=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_singleton_q_equals_base_q(self, seed, k, weighted, n_loops):
        graph, _ = planted(seed, [6, 5, 4], 0.5, 0.2, weighted)
        rng = np.random.default_rng(seed)
        looped = [graph.nodes[i] for i in rng.choice(len(graph.nodes), n_loops)]
        edges = name_pairs(graph) + [(v, v) for v in looped]
        graph = InteractionGraph(nodes=graph.nodes, edges=edges,
                                 weights=graph.weights.tolist() + [2.0] * n_loops)
        assume(graph.m > 0)
        membership = np.unique(rng.integers(0, k, len(graph.nodes)),
                               return_inverse=True)[1]
        level = aggregate(graph, membership)
        assignment = dict(zip(graph.nodes, membership.tolist()))
        assert singleton_q(level, graph.total_weight()) == pytest.approx(
            modularity(graph, assignment), abs=1e-12)
        assert np.all(level.heads < level.tails)
        between = (np.bincount(level.heads, level.weights, minlength=level.n)
                   + np.bincount(level.tails, level.weights, minlength=level.n))
        np.testing.assert_allclose(level.strength, 2.0 * level.loops + between)

    @pytest.mark.parametrize("merge_blocks", [False, True])
    def test_every_edge_inside_one_community(self, merge_blocks):
        graph, blocks = planted_partition_graph([5, 4, 3], 0.8, 0.0, rng_seed=1)
        assignment = {v: 0 if merge_blocks else blocks[v] for v in graph.nodes}
        level = aggregate(graph, [assignment[v] for v in graph.nodes])
        assert level.heads.size == 0
        assert level.n == (1 if merge_blocks else 3)
        assert singleton_q(level, graph.total_weight()) == pytest.approx(
            modularity(graph, assignment), abs=1e-12)


@st.composite
def levels(draw):
    """A level of the move/aggregate cycle: the base level of a graph built
    from random pairs, which may be reversed, repeated or loops, with unit,
    integer or fractional weights, and maybe aggregated once or twice."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=1, max_size=40))
    if draw(st.booleans()):
        pairs.append((n, n))  # a node whose only edge is a loop
        n += 1
    kind = draw(st.sampled_from(["unit", "integer", "fractional"]))
    if kind == "unit":
        weights = [1.0] * len(pairs)
    elif kind == "integer":
        weights = draw(st.lists(st.integers(1, 4).map(float), min_size=len(pairs),
                                max_size=len(pairs)))
    else:
        weights = draw(st.lists(st.floats(0.01, 10.0), min_size=len(pairs),
                                max_size=len(pairs)))
    nodes = tuple(f"v{i:02d}" for i in range(n))
    graph = InteractionGraph(nodes=nodes, edges=[(nodes[a], nodes[b]) for a, b in pairs],
                             weights=weights)
    level = _Level.from_graph(graph)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, level.n))
        membership = draw(st.lists(st.integers(0, k - 1), min_size=level.n,
                                   max_size=level.n))
        level = level.aggregate(np.unique(membership, return_inverse=True)[1])
    return level


class TestNeighborRuns:
    """Each node's run of the flat adjacency equals its frozen tuples."""

    @given(level=levels())
    @settings(max_examples=300, deadline=None)
    def test_runs_equal_reference_tuples(self, level):
        adj, starts, weights = level.neighbor_lists()
        ids, expected_weights = neighbor_lists_reference.neighbor_lists(level)
        assert len(starts) == level.n + 1
        assert starts[0] == 0 and starts[-1] == len(adj) == 2 * level.heads.size
        assert (weights is None) == bool(np.all(level.weights == 1.0))
        for v in range(level.n):
            lo, hi = starts[v], starts[v + 1]
            assert tuple(adj[lo:hi]) == ids[v]
            run = repeat(1.0, hi - lo) if weights is None else weights[lo:hi]
            assert tuple(run) == expected_weights[v]

    def test_one_node_graph_has_no_neighbors(self):
        level = _Level.from_graph(InteractionGraph(nodes=("a",), edges=[("a", "a")],
                                                   weights=[2.0]))
        adj, starts, weights = level.neighbor_lists()
        assert (list(adj), list(starts), weights) == ([], [0, 0], None)
        assert level.loops.tolist() == [2.0] and level.strength.tolist() == [4.0]


class TestBaseLevelShares:
    """The base level holds a built graph's own arrays; it copies only
    pairs that need sorting or summing."""

    @staticmethod
    def assert_shares(graph):
        base = _Level.from_graph(graph)
        for mine, theirs in ((base.heads, graph.heads), (base.tails, graph.tails),
                             (base.weights, graph.weights)):
            assert np.shares_memory(mine, theirs)

    def test_planted_graph(self):
        self.assert_shares(planted_partition_graph((10,) * 5, 0.5, 0.05, rng_seed=3)[0])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_fold_graph(self, weighted):
        fold = InteractionFold()
        for t in (tweet(1, "b", retweet_of="a"), tweet(2, "c", mentions=["a", "b"]),
                  tweet(3, "a", mentions=["c", "d"]), tweet(4, "b", retweet_of="a")):
            fold.append(t)
        self.assert_shares(build_interaction_graph(fold, weighted))

    def test_constructed_pairs_are_sorted_and_summed(self):
        pairs = [("d", "b"), ("a", "c"), ("b", "d"), ("c", "c"), ("c", "a"),
                 ("b", "a"), ("d", "b")]
        weights = [1.0, 2.0, 3.0, 5.0, 0.5, 4.0, 0.25]
        graph = InteractionGraph(nodes=("a", "b", "c", "d"), edges=pairs, weights=weights)
        base = _Level.from_graph(graph)
        assert base.heads.tolist() == [0, 0, 1]
        assert base.tails.tolist() == [1, 2, 3]
        assert base.weights.tolist() == [4.0, 2.5, 4.25]
        assert base.loops.tolist() == [0.0, 0.0, 5.0, 0.0]


def tweet(tid, author, text="hello", retweet_of=None, mentions=()):
    return Tweet(
        tweet_id=str(tid),
        author_id="9" + str(tid),
        author_screen_name=author,
        created_at=datetime(2014, 4, 7, 12, 0, tzinfo=UTC),
        text=text,
        hashtags=(),
        mentions=tuple(mentions),
        retweet_of=retweet_of,
    )


class TestBuildInteractionGraph:
    def test_retweets_and_mentions_both_count(self):
        tweets = [
            tweet(1, "alice", retweet_of="bob"),
            tweet(2, "carol", mentions=["alice", "dan"]),
        ]
        g = graph_of(tweets)
        assert name_pairs(g) == [("alice", "bob"), ("alice", "carol"), ("carol", "dan")]
        assert g.weights.tolist() == [1.0, 1.0, 1.0]

    def test_self_interaction_skipped(self):
        g = graph_of([tweet(1, "alice", mentions=["alice"])])
        assert g.m == 0 and g.nodes == ()

    def test_duplicate_interactions_collapse(self):
        tweets = [tweet(i, "alice", retweet_of="bob") for i in range(5)]
        g = graph_of(tweets)
        assert name_pairs(g) == [("alice", "bob")]
        assert g.weights.tolist() == [1.0]

    def test_duplicated_corpus_gives_identical_graph(self):
        tweets = [
            tweet(1, "a", retweet_of="b"),
            tweet(2, "b", mentions=["c"]),
            tweet(3, "c", mentions=["a", "b"]),
        ]
        assert graph_of(tweets * 2) == graph_of(tweets)

    def test_weighted_mode_counts_events(self):
        tweets = [tweet(i, "alice", retweet_of="bob") for i in range(3)]
        tweets.append(tweet(10, "bob", mentions=["alice"]))
        g = graph_of(tweets, weighted=True)
        assert name_pairs(g) == [("alice", "bob")]
        assert g.weights.tolist() == [4.0]

    def test_against_set_oracle_on_generated_fixture(self):
        rng = np.random.default_rng(20140416)
        names = [f"user{i:02d}" for i in range(25)]
        tweets = []
        for i in range(200):
            author = names[int(rng.integers(25))]
            others = [n for n in names if n != author]
            kind = int(rng.integers(3))
            if kind == 0:
                tweets.append(tweet(i, author))
            elif kind == 1:
                target = others[int(rng.integers(24))]
                tweets.append(tweet(i, author, retweet_of=target))
            else:
                picked = rng.choice(others, size=int(rng.integers(1, 4)),
                                    replace=False)
                tweets.append(tweet(i, author, mentions=list(picked)))

        expected = set()
        for t in tweets:
            for other in ([t.retweet_of] if t.retweet_of else []) + list(t.mentions):
                if other != t.author_screen_name:
                    expected.add(frozenset((t.author_screen_name, other)))

        g = graph_of(tweets)
        pairs = name_pairs(g)
        assert {frozenset(e) for e in pairs} == expected
        assert g.m == len(expected)
        assert pairs == sorted(pairs)



FOLD_NAMES = st.sampled_from(["alice", "bob", "carol", "dan", "eve", "fay"])
FOLD_TWEETS = st.lists(st.builds(
    lambda author, others, retweet: tweet(0, author, retweet_of=retweet, mentions=others),
    FOLD_NAMES, st.lists(FOLD_NAMES, max_size=3), st.none() | FOLD_NAMES), max_size=12)


def fold_of(tweets, fold=None):
    fold = InteractionFold() if fold is None else fold
    for t in tweets:
        fold.append(t)
    return fold


@st.composite
def merged_parts(draw):
    """A worker's tweets, how many of them a merge takes, and which of
    those it drops."""
    tweets = draw(FOLD_TWEETS)
    taken = draw(st.integers(0, len(tweets)))
    return tweets, taken, sorted(draw(st.sets(st.integers(0, taken - 1))) if taken else ())


class TestFoldMerge:
    """``merge`` takes another fold's part as appending its kept tweets would."""

    @settings(max_examples=300)
    @given(before=FOLD_TWEETS, part=merged_parts())
    # the dropped tweet named alice first, so carol comes before her
    @example(before=[], part=([tweet(0, "alice", mentions=["bob"]),
                               tweet(0, "carol", mentions=["alice"])], 2, [0]))
    def test_merge_equals_appending_the_kept_tweets(self, before, part):
        tweets, taken, dropped = part
        worker, ends = InteractionFold(), []
        for t in tweets:
            worker.append(t)
            ends.append(worker.mark())
        names, buffers = worker.take()
        assert (len(worker), worker.mark(), worker.take()) == (0, 0, ("", (array("i"), array("i"))))
        merged = fold_of(before)
        merged.merge(names, [bytes(buffer) for buffer in buffers],
                     np.array(ends[:taken], dtype=np.intc), dropped)
        expected = fold_of([t for i, t in enumerate(tweets[:taken]) if i not in dropped],
                           fold_of(before))
        assert (list(merged._index), merged._authors, merged._targets, len(merged)) == (
            list(expected._index), expected._authors, expected._targets, len(expected))


KNOWN = {"a": "AAP", "e": "BJP"}


class TestLabeling:
    def test_plurality_labels(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, KNOWN)
        assert lab[0] == "AAP"
        assert lab[1] == "BJP"

    def test_tie_goes_unlabeled(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, {"a": "AAP", "b": "BJP", "e": "CONG"})
        assert 0 not in lab
        assert lab[1] == "CONG"

    def test_unknown_community_unlabeled(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, {"a": "AAP"})
        assert 1 not in lab

    def test_small_community_suppressed(self, monkeypatch):
        # 4-clique and a triangle; the triangle is 3/7 of the nodes
        edges = [(f"a{i}", f"a{j}") for i in range(4) for j in range(i + 1, 4)]
        edges += [("b0", "b1"), ("b1", "b2"), ("b0", "b2")]
        g = make_graph(edges)
        assignment = {v: (0 if v.startswith("a") else 1) for v in g.nodes}
        part = partition_of(g, assignment)
        known = {"a0": "AAP", "b0": "BJP"}
        monkeypatch.setattr(graph_module, "_MIN_SIZE_FRACTION", 0.5)
        lab = label_communities(part, known)
        assert lab[0] == "AAP"
        assert 1 not in lab

    def test_everything_suppressed_is_an_error(self, monkeypatch):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        # both halves hold 3/6 = 0.5 of the nodes, below the threshold
        monkeypatch.setattr(graph_module, "_MIN_SIZE_FRACTION", 0.75)
        with pytest.raises(GraphError, match="no labelable"):
            label_communities(part, KNOWN)

    def test_mixed_majority_fixture(self):
        # one 97-node community: 62 AAP vs 23 BJP vs 12 unknown members
        edges = [(f"m{i:02d}", f"m{(i + 1) % 97:02d}") for i in range(97)]
        g = make_graph(edges)
        part = partition_of(g, {v: 0 for v in g.nodes})
        known = {f"m{i:02d}": "AAP" for i in range(62)}
        known.update({f"m{i:02d}": "BJP" for i in range(62, 85)})
        lab = label_communities(part, known)
        assert lab[0] == "AAP"

    def test_empty_known_rejected(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        with pytest.raises(GraphError):
            label_communities(part, {})


class TestCommunityClassify:
    def test_perfectly_separated(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, KNOWN)
        truth = {"b": "AAP", "c": "AAP", "d": "BJP", "f": "BJP"}
        ev = community_classify(part, lab, truth)
        assert ev.report.accuracy == 1.0
        assert ev.coverage == 1.0
        assert ev.n_missing == 0 and ev.n_unlabeled == 0

    def test_truth_users_outside_graph_reduce_coverage(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, KNOWN)
        truth = {"b": "AAP", "zz": "CONG"}
        ev = community_classify(part, lab, truth)
        assert ev.coverage == 0.5
        assert ev.n_missing == 1

    def test_unlabeled_community_users_excluded(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, {"a": "AAP"})  # def-triangle unlabeled
        ev = community_classify(part, lab, {"b": "AAP", "e": "BJP"})
        assert ev.n_unlabeled == 1
        assert ev.coverage == 0.5
        assert ev.report.total == 1

    def test_misclassification_lands_in_confusion(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, KNOWN)
        ev = community_classify(part, lab, {"b": "AAP", "f": "CONG"})
        # f sits in the BJP-labeled triangle but is truly CONG
        assert ev.report.accuracy == 0.5
        assert "CONG" in ev.report.classes and "BJP" in ev.report.classes

    def test_empty_truth_rejected(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, KNOWN)
        with pytest.raises(GraphError):
            community_classify(part, lab, {})

    def test_no_evaluable_users_rejected(self):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        lab = label_communities(part, KNOWN)
        with pytest.raises(GraphError, match="no truth user"):
            community_classify(part, lab, {"nope": "AAP"})


class TestConstructor:
    def test_name_pairs_become_ids_into_the_nodes(self):
        g = InteractionGraph(nodes=("a", "b", "c"), edges=(("a", "c"), ("b", "c")),
                             weights=(2.0, 1.0))
        assert (g.heads.tolist(), g.tails.tolist()) == ([0, 1], [2, 2])
        assert g.heads.dtype == np.int32 and g.weights.dtype == np.float64
        assert not g.weights.flags.writeable

    @pytest.mark.parametrize("edges, weights, message", [
        ((("a", "z"),), (1.0,), "edge endpoint 'z' is not a node"),
        ((("a", "b"),), (), "0 weights for 1 edges"),
    ])
    def test_rejects_inconsistent_input(self, edges, weights, message):
        with pytest.raises(GraphError, match=message):
            InteractionGraph(nodes=("a", "b"), edges=edges, weights=weights)

    def test_never_equals_another_type(self):
        g = InteractionGraph(nodes=("a",), edges=(), weights=())
        assert g != "x"
        assert not g == "x"


class TestPlantedStorage:
    """The louvain-planted workload's graph shape at a tenth of its blocks."""

    @staticmethod
    def build():
        return planted_partition_graph((100,) * 50, 0.1, 4e-4, rng_seed=1)[0]

    def test_edge_list_and_partition_golden(self, tmp_path):
        g = self.build()
        write_edges(g, tmp_path / "graph.edges")
        write_partition(louvain(g), tmp_path / "partition.txt")
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("graph.edges", "partition.txt")]
        assert digests == [
            "6ba4e9340259276a7f23d94a423d7c044eb93e1b4092de746f47d93ef990bcb4",
            "3b7cc0a7f2f12943cfddfc60b77ba15bd121d81907aa5ed75b6254835dd8d471",
        ]

    def test_weighted_partition_golden(self, tmp_path):
        g = planted(1, (100,) * 50, 0.1, 4e-4, weighted=True)[0]
        write_partition(louvain(g), tmp_path / "partition.txt")
        assert hashlib.sha256((tmp_path / "partition.txt").read_bytes()).hexdigest() == (
            "99289be84b9b9ab7ca50d12d5f3835c467e8ab838aba6139bfc45c4fa81d8c13")

    @staticmethod
    def louvain_peak_per_edge(g):
        tracemalloc.start()
        try:
            louvain(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / g.m

    def test_louvain_peaks_under_80_bytes_per_edge(self):
        # per-node tuples of neighbor ids and shared unit weights came to
        # about 162 bytes per edge here; one flat int32 run of neighbors per
        # level, with the base level sharing the graph's arrays, about 46 on
        # Python 3.11 with numpy 2.4
        assert self.louvain_peak_per_edge(self.build()) < 80

    def test_weighted_louvain_peaks_under_120_bytes_per_edge(self):
        # per-node tuples of neighbors and of weights came to about 232
        # bytes per edge here; flat runs of int32 ids and float64 weights,
        # about 61 on Python 3.11 with numpy 2.4
        g = planted(1, (100,) * 50, 0.1, 4e-4, weighted=True)[0]
        assert self.louvain_peak_per_edge(g) < 120

    def test_held_graph_costs_under_40_bytes_per_edge(self):
        # names, int32 endpoint ids and float64 weights come to about 26
        # bytes per edge here; a tuple of name pairs per edge costs about 82
        tracemalloc.start()
        try:
            g = self.build()
            held = tracemalloc.get_traced_memory()[0]
            m = g.m
            del g
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (held - left) / m < 40


class TestNetworkRunStorage:
    """A network run folds each tweet into its graph as it is parsed."""

    def test_network_run_peaks_under_100_bytes_per_tweet(self, tmp_path):
        # holding every parsed tweet until the run returned came to about
        # 440 bytes per tweet here; folding each one as it is parsed, about
        # 150, 113 of them a set of the id strings for the duplicate check;
        # with the ids held as ints in an array and the annotation rows
        # dropped once resolved, about 65 on Python 3.11 with numpy 2.4,
        # set by the graph stage. The bound leaves half again for other
        # Python and numpy versions
        spec = SyntheticSpec(users_per_party=dict.fromkeys(PARTIES, 100))
        data = write_synthetic(spec, tmp_path / "corpus.jsonl",
                               tmp_path / "annotations.csv")
        n_tweets = len(data.tweets)
        del data
        config = RunConfig(corpus_path=str(tmp_path / "corpus.jsonl"),
                           annotations_path=str(tmp_path / "annotations.csv"),
                           out_dir=str(tmp_path / "out"), method="network")
        run(config)  # the first run's imports and caches are no run's own
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_tweets == 9000
        assert peak / n_tweets < 100


class TestExports:
    def test_edge_list_format(self, tmp_path):
        path = tmp_path / "graph.edges"
        write_edges(BRIDGE, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a b"
        assert lines == sorted(lines)
        assert len(lines) == BRIDGE.m

    def test_weighted_edge_list_appends_weight(self, tmp_path):
        g = InteractionGraph(nodes=("a", "b"), edges=(("a", "b"),),
                             weights=(3.0,))
        path = tmp_path / "graph.edges"
        write_edges(g, path)
        assert path.read_text() == "a b 3\n"

    def test_partition_header_and_rows(self, tmp_path):
        part = partition_of(BRIDGE, BRIDGE_SPLIT)
        path = tmp_path / "partition.txt"
        write_partition(part, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "modularity 0.357143"
        assert lines[1] == "a 0"
        assert len(lines) == 1 + len(BRIDGE.nodes)
