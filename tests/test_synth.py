"""Tests for the synthetic corpus generator and the planted block model."""

import hashlib
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference
from interactions import graph_of
from polistance.annotation import resolve_majority, write_annotations
from polistance.corpus import extract_entities, parse_corpus, write_corpus
from polistance.features import PARTIES, default_lexicon
from polistance.synth import (
    SynthError,
    SyntheticSpec,
    generate_corpus,
    planted_partition_graph,
    skewed_preset,
    write_synthetic,
)

SMALL = SyntheticSpec(
    users_per_party={"AAP": 8, "BJP": 8, "CONG": 8},
    tweets_per_user=10,
    rng_seed=42,
)


def name_pairs(graph):
    """The two node names of each edge, read from its ids."""
    return [(graph.nodes[a], graph.nodes[b])
            for a, b in zip(graph.heads.tolist(), graph.tails.tolist())]


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = SyntheticSpec()
        assert spec.tweets_per_user == 30
        assert sum(spec.users_per_party.values()) == 120

    def test_probability_bounds(self):
        with pytest.raises(SynthError, match="p_intra"):
            SyntheticSpec(p_intra=1.5)
        with pytest.raises(SynthError, match="annotator_noise"):
            SyntheticSpec(annotator_noise=-0.1)

    def test_intra_plus_cross_bounded(self):
        with pytest.raises(SynthError, match="exceed"):
            SyntheticSpec(p_intra=0.8, p_cross=0.3)

    def test_party_keys_must_match(self):
        with pytest.raises(SynthError, match="users_per_party"):
            SyntheticSpec(users_per_party={"AAP": 5})

    def test_counts_at_least_one(self):
        with pytest.raises(SynthError):
            SyntheticSpec(tweets_per_user=0)
        with pytest.raises(SynthError):
            SyntheticSpec(users_per_party={"AAP": 0, "BJP": 5, "CONG": 5})

    def test_skewed_preset_counts(self):
        spec = skewed_preset()
        assert spec.users_per_party == {"AAP": 133, "BJP": 447, "CONG": 33}


class TestGenerateCorpus:
    def test_shape(self):
        data = generate_corpus(SMALL)
        assert len(data.tweets) == 24 * 10
        assert len(data.truth) == 24
        assert len(data.annotations) == 24 * 3
        # one profile per user plus one per seed account
        assert len(data.profiles) == 24 + len(default_lexicon().seed_party_map())

    def test_deterministic(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SMALL)
        assert a.tweets == b.tweets
        assert a.profiles == b.profiles
        assert a.annotations == b.annotations

    def test_seed_changes_output(self):
        other = SyntheticSpec(
            users_per_party=SMALL.users_per_party,
            tweets_per_user=SMALL.tweets_per_user,
            rng_seed=SMALL.rng_seed + 1,
        )
        assert generate_corpus(SMALL).tweets != generate_corpus(other).tweets

    def test_entities_match_text(self):
        # hashtags and mentions are embedded in the raw text, so a parser
        # that re-derives them from text agrees with the stored fields
        for t in generate_corpus(SMALL).tweets:
            tags, mentions = extract_entities(t.text)
            assert tuple(tags) == t.hashtags
            assert tuple(mentions) == t.mentions

    def test_retweets_start_with_rt(self):
        data = generate_corpus(SMALL)
        retweets = [t for t in data.tweets if t.retweet_of is not None]
        assert retweets, "fixture should contain retweets"
        for t in retweets:
            assert t.text.startswith("rt @")
            assert t.retweet_of in t.mentions

    def test_zero_noise_annotations_recover_truth(self):
        spec = SyntheticSpec(
            users_per_party={"AAP": 6, "BJP": 6, "CONG": 6},
            tweets_per_user=5,
            annotator_noise=0.0,
            rng_seed=7,
        )
        data = generate_corpus(spec)
        resolved = resolve_majority(list(data.annotations))
        assert {r.user_id: r.pro for r in resolved} == dict(data.truth)
        for r in resolved:
            assert r.anti != r.pro

    def test_zero_cross_graph_separates_parties(self):
        spec = SyntheticSpec(
            users_per_party={"AAP": 10, "BJP": 10, "CONG": 10},
            tweets_per_user=20,
            p_intra=0.5,
            p_cross=0.0,
            rng_seed=3,
        )
        data = generate_corpus(spec)
        graph = graph_of(data.tweets)

        adjacency = defaultdict(set)
        for a, b in name_pairs(graph):
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = set()
        components = []
        for node in graph.nodes:
            if node in seen:
                continue
            stack, comp = [node], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adjacency[v] - comp)
            seen |= comp
            components.append(comp)
        assert len(components) >= 3

        party_of = dict(data.truth)
        party_of.update(default_lexicon().seed_party_map())
        for comp in components:
            assert len({party_of[v] for v in comp}) == 1

    def test_tweet_timestamps_are_increasing(self):
        data = generate_corpus(SMALL)
        stamps = [t.created_at for t in data.tweets]
        assert stamps == sorted(stamps)


class TestWriteSynthetic:
    def test_roundtrip_through_parser(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        ann_path = tmp_path / "annotations.csv"
        data = write_synthetic(SMALL, corpus_path, ann_path)
        tweets, profiles, skipped = parse_corpus(corpus_path, strictness="strict")
        assert skipped == 0
        assert len(tweets) == len(data.tweets)
        assert len(profiles) == len(data.profiles)
        assert [t.tweet_id for t in tweets] == [t.tweet_id for t in data.tweets]

    def test_identical_seeds_are_byte_identical(self, tmp_path):
        p1, a1 = tmp_path / "c1.jsonl", tmp_path / "a1.csv"
        p2, a2 = tmp_path / "c2.jsonl", tmp_path / "a2.csv"
        write_synthetic(SMALL, p1, a1)
        write_synthetic(SMALL, p2, a2)
        assert p1.read_bytes() == p2.read_bytes()
        assert a1.read_bytes() == a2.read_bytes()

    def test_default_spec_golden_digest(self, tmp_path):
        # the benchmark's input sets come from this generator, so its bytes
        # are pinned, not just equal from run to run
        corpus_path = tmp_path / "corpus.jsonl"
        ann_path = tmp_path / "annotations.csv"
        write_synthetic(SyntheticSpec(), corpus_path, ann_path)
        assert hashlib.sha256(corpus_path.read_bytes()).hexdigest() == (
            "7195acf5d9875ab4e0de8d685cd8c2d33a03eeec218be1d712bdbb3655c7da00"
        )
        assert hashlib.sha256(ann_path.read_bytes()).hexdigest() == (
            "a3d3029616b132641bb1457be24d6cdc9e3960a0d31856ccc01c3f8711b0e7a1"
        )

    def test_300_user_golden_digest(self, tmp_path):
        # a corpus large enough that every same-party pool is much longer
        # than the 40-user default's
        corpus_path = tmp_path / "corpus.jsonl"
        ann_path = tmp_path / "annotations.csv"
        write_synthetic(SyntheticSpec(users_per_party=dict.fromkeys(PARTIES, 300),
                                      rng_seed=5),
                        corpus_path, ann_path)
        assert hashlib.sha256(corpus_path.read_bytes()).hexdigest() == (
            "2627b8691aa4e8a5fec54f056887fa9f5923ed1e81e42b5cfc4cc4d70cedd391"
        )
        assert hashlib.sha256(ann_path.read_bytes()).hexdigest() == (
            "c6ecb16bdcd7ea08b2ac9168ad16765f004d9b35effb2de86312b6978519c6a3"
        )


# (p_intra, p_cross): each at its bounds, pairs that leave no plain tweet,
# and any pair the spec accepts
INTERACTION_SHARES = st.one_of(
    st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.02)]),
    st.floats(0.0, 1.0).map(lambda p: (p, 1.0 - p)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
).filter(lambda shares: shares[0] + shares[1] <= 1.0)


@st.composite
def specs(draw):
    p_intra, p_cross = draw(INTERACTION_SHARES)
    return SyntheticSpec(
        users_per_party={party: draw(st.integers(1, 12)) for party in PARTIES},
        tweets_per_user=draw(st.integers(1, 6)),
        p_intra=p_intra,
        p_cross=p_cross,
        annotator_noise=draw(st.sampled_from([0.0, 0.1, 1.0])),
        rng_seed=draw(st.integers()),
    )


class TestGeneratorOracle:
    """The live generator against its frozen quadratic reference."""

    @settings(max_examples=150, deadline=None)
    @given(spec=specs())
    def test_matches_reference(self, spec, tmp_path_factory):
        live = generate_corpus(spec)
        frozen = synth_reference.generate_corpus(spec)
        assert live.tweets == frozen.tweets
        assert live.profiles == frozen.profiles
        assert live.annotations == frozen.annotations
        assert live.truth == frozen.truth

        out = tmp_path_factory.mktemp("oracle")
        write_synthetic(spec, out / "live.jsonl", out / "live.csv")
        write_corpus(out / "frozen.jsonl", frozen.tweets, frozen.profiles)
        write_annotations(out / "frozen.csv", frozen.annotations)
        assert (out / "live.jsonl").read_bytes() == (out / "frozen.jsonl").read_bytes()
        assert (out / "live.csv").read_bytes() == (out / "frozen.csv").read_bytes()


class TestPlantedPartition:
    def test_membership_covers_all_nodes(self):
        graph, membership = planted_partition_graph([5, 7, 3], 0.5, 0.1,
                                                    rng_seed=1)
        assert len(graph.nodes) == 15
        assert set(membership) == set(graph.nodes)
        assert Counter(membership.values()) == {0: 5, 1: 7, 2: 3}

    def test_p_in_one_gives_complete_blocks(self):
        graph, membership = planted_partition_graph([4, 4], 1.0, 0.0)
        intra = Counter()
        for a, b in name_pairs(graph):
            assert membership[a] == membership[b]
            intra[membership[a]] += 1
        assert intra == {0: 6, 1: 6}

    def test_one_node_block_has_only_cross_edges(self):
        graph, membership = planted_partition_graph([1, 4], 1.0, 1.0)
        assert membership == {"n0": 0, "n1": 1, "n2": 1, "n3": 1, "n4": 1}
        pairs = name_pairs(graph)
        assert [pair for pair in pairs if "n0" in pair] == [
            ("n0", "n1"), ("n0", "n2"), ("n0", "n3"), ("n0", "n4")]
        assert len(pairs) == 4 + 6

    def test_p_out_zero_has_no_cross_edges(self):
        graph, membership = planted_partition_graph([10, 10], 0.4, 0.0,
                                                    rng_seed=2)
        assert all(membership[a] == membership[b] for a, b in name_pairs(graph))

    def test_deterministic_and_sorted(self):
        g1, _ = planted_partition_graph([8, 8, 8], 0.3, 0.05, rng_seed=9)
        g2, _ = planted_partition_graph([8, 8, 8], 0.3, 0.05, rng_seed=9)
        assert g1 == g2
        pairs = name_pairs(g1)
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

    def test_cross_edges_appear_at_high_p_out(self):
        graph, membership = planted_partition_graph([10, 10], 0.0, 0.9,
                                                    rng_seed=4)
        assert graph.m > 0
        assert all(membership[a] != membership[b] for a, b in name_pairs(graph))

    def test_parameter_validation(self):
        with pytest.raises(SynthError):
            planted_partition_graph([], 0.5, 0.1)
        with pytest.raises(SynthError):
            planted_partition_graph([5, 0], 0.5, 0.1)
        with pytest.raises(SynthError, match="p_in"):
            planted_partition_graph([5, 5], 1.5, 0.1)
        with pytest.raises(SynthError, match="p_out"):
            planted_partition_graph([5, 5], 0.5, -0.2)
