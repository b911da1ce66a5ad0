"""Differential oracle: the live Louvain against its frozen reference.

Each generated graph is a planted partition whose edges go through the
``InteractionGraph`` constructor with some pairs reversed, some repeated
and some loops added, so every level of the move/aggregate cycle sees
pairs to merge. With unit weights and with integer weights 1-4 (the event
counts of ``graph --weighted``) every sum is exact, so partitions and Q
must be equal to the reference's exactly. Other float weights may be
summed in another order, so there Q must agree within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import louvain_reference as ref
from polistance.graph import InteractionGraph, louvain, modularity
from polistance.synth import planted_partition_graph

WEIGHTS = {
    "unit": lambda rng, size: np.ones(size),
    "integer": lambda rng, size: rng.integers(1, 5, size).astype(np.float64),
    "float": lambda rng, size: rng.uniform(0.01, 10.0, size),
}


@st.composite
def constructed_graphs(draw, kind):
    """A planted graph rebuilt from shuffled name pairs, with reversed and
    repeated pairs and loops, and a random assignment of its nodes."""
    seed = draw(st.integers(0, 10_000))
    sizes = draw(st.lists(st.integers(2, 9), min_size=1, max_size=5))
    p_out = draw(st.sampled_from([0.02, 0.1, 0.3]))
    planted, _ = planted_partition_graph(sizes, 0.6, p_out, rng_seed=seed)
    rng = np.random.default_rng(seed)
    nodes = planted.nodes
    pairs = list(zip(planted.heads.tolist(), planted.tails.tolist()))
    n_repeats = draw(st.integers(0, 5))
    n_loops = draw(st.integers(0, 3))
    if pairs:
        pairs += [pairs[i] for i in rng.integers(0, len(pairs), n_repeats)]
    pairs += [(v, v) for v in rng.integers(0, len(nodes), n_loops).tolist()]
    pairs = [(b, a) if flip else (a, b)
             for (a, b), flip in zip(pairs, rng.random(len(pairs)) < 0.5)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    graph = InteractionGraph(nodes=nodes,
                             edges=[(nodes[a], nodes[b]) for a, b in pairs],
                             weights=WEIGHTS[kind](rng, len(pairs)).tolist())
    assume(graph.m > 0)
    assignment = dict(zip(nodes, rng.integers(0, 4, len(nodes)).tolist()))
    return graph, assignment, seed


class TestAgainstReference:
    @pytest.mark.parametrize("kind", ["unit", "integer"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_exact_weights_give_identical_partitions_and_q(self, kind, data):
        graph, assignment, seed = data.draw(constructed_graphs(kind))
        assert louvain(graph, rng_seed=seed) == ref.louvain(graph, rng_seed=seed)
        assert modularity(graph, assignment) == ref.modularity(graph, assignment)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_float_weights_give_q_within_1e_12(self, data):
        graph, assignment, seed = data.draw(constructed_graphs("float"))
        part, expected = louvain(graph, rng_seed=seed), ref.louvain(graph, rng_seed=seed)
        assert part.modularity_q == pytest.approx(expected.modularity_q, abs=1e-12)
        assert modularity(graph, assignment) == pytest.approx(
            ref.modularity(graph, assignment), abs=1e-12)
