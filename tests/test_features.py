"""Tests for TF-IDF matrices, party lexicons, and user feature vectors."""

import json
import math
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polistance.corpus import Tweet, UserProfile
from polistance.features import (
    FEATURE_NAMES,
    PARTIES,
    FeatureError,
    PartyLexicon,
    PartyTerms,
    build_hashtag_matrix,
    build_text_matrix,
    default_lexicon,
    idf,
    user_feature_vector,
    write_matrix,
)


def counts_of(term_lists):
    """Each user's term list as the per-user term counts the builders take."""
    return {user: Counter(terms) for user, terms in term_lists.items()}


def oracle_matrix(term_lists, min_support):
    """From-scratch recomputation: vocabulary and dense cell values."""
    users = [u for u, terms in term_lists.items() if terms]
    total = len(users)
    support = {}
    for u in users:
        for t in set(term_lists[u]):
            support[t] = support.get(t, 0) + 1
    vocab = sorted(t for t, s in support.items() if s >= min_support)
    # a user none of whose terms is in the vocabulary gets no row
    users = [u for u in users if set(term_lists[u]) & set(vocab)]
    cells = {}
    for i, u in enumerate(users):
        tokens = list(term_lists[u])
        for j, t in enumerate(vocab):
            n = tokens.count(t)
            if n:
                cells[(i, j)] = (n / len(tokens)) * math.log(total / (1 + support[t]))
    return users, vocab, cells


class TestIdf:
    def test_rare_term(self):
        assert idf(10, 1) == pytest.approx(math.log(5), abs=1e-12)

    def test_universal_term_goes_negative(self):
        assert idf(10, 10) == pytest.approx(math.log(10 / 11), abs=1e-12)
        assert idf(10, 10) < 0

    def test_preconditions(self):
        with pytest.raises(FeatureError):
            idf(0, 0)
        with pytest.raises(FeatureError):
            idf(5, 6)


def single_user_tf(tokens):
    """TF of one user's terms, read back from a one-user unpruned matrix.

    Its every idf is ln(1/2), so each cell divided by its idf is the TF.
    """
    matrix = build_text_matrix({"u1": Counter(tokens)}, min_user_support=1)
    (row,) = matrix.rows
    return {matrix.vocabulary[j].term: value / matrix.vocabulary[j].idf
            for j, value in row.items()}


class TestTermCounts:
    def test_normalized_frequencies(self):
        tf = single_user_tf(["modi", "modi", "aap", "rally"])
        assert tf == {"modi": 0.5, "aap": 0.25, "rally": 0.25}

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=50))
    def test_tf_sums_to_one(self, tokens):
        total = math.fsum(single_user_tf(tokens).values())
        assert abs(total - 1.0) <= 1e-12


class TestTextMatrix:
    def test_matches_oracle(self):
        rng = np.random.default_rng(61)
        words = [f"w{k}" for k in range(30)]
        term_lists = {
            f"user{i}": [words[rng.integers(0, 30)] for _ in range(rng.integers(5, 40))]
            for i in range(20)
        }
        matrix = build_text_matrix(counts_of(term_lists), min_user_support=5)
        users, vocab, cells = oracle_matrix(term_lists, 5)

        assert list(matrix.user_ids) == users
        assert [v.term for v in matrix.vocabulary] == vocab
        dense = matrix.dense(range(matrix.shape[0]))
        assert dense.shape == (len(users), len(vocab))
        for (i, j), value in cells.items():
            assert abs(dense[i, j] - value) <= 1e-12
        assert np.count_nonzero(dense) == len(cells)

    def test_vocab_size_at_scale(self):
        rng = np.random.default_rng(613)
        words = [f"w{k}" for k in range(400)]
        term_lists = {
            f"user{i}": [words[rng.integers(0, 400)] for _ in range(25)]
            for i in range(613)
        }
        matrix = build_text_matrix(counts_of(term_lists), min_user_support=5)
        _, vocab, _ = oracle_matrix(term_lists, 5)
        assert matrix.shape == (613, len(vocab))

    def test_support_counted_before_pruning_and_full_denominator(self):
        # "rare" misses the support cut but still dilutes the TF denominator
        term_lists = {
            "u1": ["shared", "rare"],
            "u2": ["shared"],
            "u3": ["shared"],
        }
        matrix = build_text_matrix(counts_of(term_lists), min_user_support=3)
        assert [v.term for v in matrix.vocabulary] == ["shared"]
        expected = 0.5 * math.log(3 / 4)
        assert matrix.dense([0])[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_empty_user_error_and_drop(self):
        term_lists = {"u1": ["a"], "u2": []}
        matrix = build_text_matrix(counts_of(term_lists), min_user_support=1)
        assert matrix.user_ids == ("u1",)
        # |U| counts kept users only
        assert matrix.vocabulary[0].idf == pytest.approx(math.log(1 / 2), abs=1e-15)

    def test_all_users_empty_rejected(self):
        with pytest.raises(FeatureError):
            build_text_matrix({"u1": Counter()}, min_user_support=1)

    def test_user_with_every_term_pruned_dropped_but_counted_in_idf(self):
        term_lists = {"u1": ["a"], "u2": ["a", "b"], "u3": ["c"], "u4": ["d", "d"]}
        matrix = build_text_matrix(counts_of(term_lists), min_user_support=2)
        assert [v.term for v in matrix.vocabulary] == ["a"]
        assert matrix.user_ids == ("u1", "u2")
        assert matrix.shape == (2, 1)
        # |U| is 4: the two dropped users had terms before pruning
        assert matrix.vocabulary[0].idf == pytest.approx(math.log(4 / 3), abs=1e-15)

    def test_every_term_pruned_rejected(self):
        with pytest.raises(FeatureError, match="matrix would be empty"):
            build_text_matrix(counts_of({"u1": ["a"], "u2": ["b"]}), min_user_support=2)

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.integers(0, 8),
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 4),
    )
    def test_support_monotonicity(self, raw, support):
        term_lists = {f"u{k}": v for k, v in raw.items()}

        def kept_terms(min_user_support):
            try:
                matrix = build_text_matrix(counts_of(term_lists),
                                           min_user_support=min_user_support)
            except FeatureError:  # every term pruned
                return set()
            return {v.term for v in matrix.vocabulary}

        assert kept_terms(support + 1) <= kept_terms(support)

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.integers(0, 6),
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=10),
            min_size=1,
            max_size=6,
        )
    )
    def test_doubling_tokens_changes_nothing(self, raw):
        term_lists = {f"u{k}": v for k, v in raw.items()}
        doubled = {u: list(v) + list(v) for u, v in term_lists.items()}
        a = build_text_matrix(counts_of(term_lists), min_user_support=1)
        b = build_text_matrix(counts_of(doubled), min_user_support=1)
        assert a.vocabulary == b.vocabulary
        every_row = range(a.shape[0])
        assert np.array_equal(a.dense(every_row), b.dense(every_row))


class TestHashtagMatrix:
    def test_no_tag_reaches_support(self):
        with pytest.raises(FeatureError, match="no hashtags used by 2 or more users"):
            build_hashtag_matrix(counts_of({"u1": ["namo", "namo"], "u2": ["aap"]}))

    def test_shared_tag_kept(self):
        matrix = build_hashtag_matrix(counts_of({"u1": ["namo"], "u2": ["namo", "aap"]}))
        assert [v.term for v in matrix.vocabulary] == ["namo"]

    def test_matches_oracle(self):
        rng = np.random.default_rng(99)
        tags = [f"tag{k}" for k in range(25)]
        term_lists = {
            f"user{i}": [tags[rng.integers(0, 25)] for _ in range(rng.integers(1, 12))]
            for i in range(99)
        }
        matrix = build_hashtag_matrix(counts_of(term_lists), min_user_support=2)
        users, vocab, cells = oracle_matrix(term_lists, 2)
        assert [v.term for v in matrix.vocabulary] == vocab
        dense = matrix.dense(range(matrix.shape[0]))
        for (i, j), value in cells.items():
            assert abs(dense[i, j] - value) <= 1e-12


def tweet_for(name, text, hashtags=(), when=None, i=[0]):
    i[0] += 1
    return Tweet(
        tweet_id=f"t{i[0]}",
        author_id=f"id-{name}",
        author_screen_name=name,
        created_at=when or datetime(2014, 3, 1, tzinfo=timezone.utc),
        text=text,
        hashtags=tuple(hashtags),
    )


class TestUserFeatureVector:
    def test_following_bits(self):
        lexicon = default_lexicon()
        profile = UserProfile("u1", "fan", 10, 20, 30,
                              following=frozenset({"arvindkejriwal"}))
        named = dict(zip(FEATURE_NAMES, user_feature_vector(profile, [], lexicon)))
        assert (named["following_aap"], named["following_bjp"],
                named["following_cong"]) == (1, 0, 0)

    def test_word_occurrences_counted(self):
        lexicon = default_lexicon()
        profile = UserProfile("u1", "fan", 0, 0, 0)
        tweets = [tweet_for("fan", "kejriwal kejriwal speaks")]
        vector = user_feature_vector(profile, tweets, lexicon)
        assert vector[FEATURE_NAMES.index("aap_words")] == 2

    def test_full_vector_matches_hand_count(self):
        lexicon = PartyLexicon(parties={
            "AAP": PartyTerms(frozenset({"jhadu"}), frozenset({"aap"}),
                              frozenset({"aamaadmiparty"})),
            "BJP": PartyTerms(frozenset({"namo", "modi"}), frozenset({"namo"}),
                              frozenset({"bjp4india"})),
            "CONG": PartyTerms(frozenset({"rahul"}), frozenset({"inc"}),
                               frozenset({"incindia"})),
        })
        profile = UserProfile("u1", "voter", followers_count=55, friends_count=44,
                              statuses_count=99,
                              following=frozenset({"bjp4india", "incindia", "other"}))
        tweets = [
            tweet_for("voter", "modi and namo wave", hashtags=("namo", "trend")),
            tweet_for("voter", "jhadu sweeps", hashtags=("aap", "namo")),
            tweet_for("voter", "rahul rahul rahul", hashtags=("inc",)),
        ]
        vector = user_feature_vector(profile, tweets, lexicon)
        assert vector == (44, 55, 0, 1, 1, 1, 2, 3, 1, 2, 1)
        assert len(FEATURE_NAMES) == 11

    def test_tweet_order_irrelevant(self):
        lexicon = default_lexicon()
        profile = UserProfile("u1", "voter", 1, 2, 3)
        tweets = [
            tweet_for("voter", "modi rally", hashtags=("namo",)),
            tweet_for("voter", "kejriwal speech", hashtags=("aap",)),
            tweet_for("voter", "congress manifesto", hashtags=()),
        ]
        forward = user_feature_vector(profile, tweets, lexicon)
        backward = user_feature_vector(profile, tweets[::-1], lexicon)
        assert forward == backward

    def test_foreign_tweet_rejected(self):
        lexicon = default_lexicon()
        profile = UserProfile("u1", "voter", 1, 2, 3)
        with pytest.raises(FeatureError):
            user_feature_vector(profile, [tweet_for("other", "hello")], lexicon)


class TestLexicon:
    def test_default_is_valid_and_disjoint(self):
        lexicon = default_lexicon()
        seed_map = lexicon.seed_party_map()
        assert seed_map["narendramodi"] == "BJP"
        assert seed_map["aamaadmiparty"] == "AAP"
        assert seed_map["incindia"] == "CONG"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "lexicon.json"
        lexicon = default_lexicon()
        path.write_text(json.dumps({
            party: {bucket: sorted(getattr(lexicon.terms(party), bucket))
                    for bucket in ("keywords", "hashtags", "seed_accounts")}
            for party in PARTIES
        }), encoding="utf-8")
        assert PartyLexicon.from_file(path) == lexicon

    @pytest.mark.parametrize("party, bucket, entries", [
        ("AAP", "keywords", "kejriwal"),  # not eight one-letter keywords
        ("BJP", "hashtags", [5]),
        ("CONG", "seed_accounts", ["incindia", None]),
        ("AAP", "keywords", {"kejriwal": 1}),
    ])
    def test_bucket_that_is_not_a_list_of_strings_rejected(self, party, bucket, entries,
                                                          tmp_path):
        path = tmp_path / "lexicon.json"
        raw = {p: {} for p in PARTIES}
        raw[party][bucket] = entries
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(FeatureError) as caught:
            PartyLexicon.from_file(path)
        assert str(caught.value).startswith(
            f"{path}: party {party!r} bucket {bucket!r} must be a list of strings")

    def test_entry_error_names_file_and_party(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps({"AAP": {}, "BJP": {}, "CONG": {"keywords": ["Rahul"]}}),
                        encoding="utf-8")
        with pytest.raises(FeatureError) as caught:
            PartyLexicon.from_file(path)
        assert str(caught.value) == (
            f"{path}: party 'CONG': keywords entry 'Rahul' is not lowercase")

    def test_non_utf8_file_rejected_by_name(self, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_bytes('{"AAP": {"keywords": ["kejriwél"]}}'.encode("latin-1"))
        with pytest.raises(FeatureError) as caught:
            PartyLexicon.from_file(path)
        assert str(caught.value).startswith(f"cannot read lexicon {path}: ")

    def test_overlapping_seeds_rejected(self):
        shared = frozenset({"sharedhandle"})
        with pytest.raises(FeatureError, match="sharedhandle"):
            PartyLexicon(parties={
                "AAP": PartyTerms(frozenset(), frozenset(), shared),
                "BJP": PartyTerms(frozenset(), frozenset(), shared),
                "CONG": PartyTerms(frozenset(), frozenset(), frozenset()),
            })

    def test_uppercase_rejected(self):
        with pytest.raises(FeatureError):
            PartyTerms(frozenset({"Modi"}), frozenset(), frozenset())

    def test_hash_marker_rejected(self):
        with pytest.raises(FeatureError):
            PartyTerms(frozenset(), frozenset({"#namo"}), frozenset())

    def test_wrong_party_set_rejected(self):
        with pytest.raises(FeatureError):
            PartyLexicon(parties={
                "AAP": PartyTerms(frozenset(), frozenset(), frozenset()),
            })


class TestExport:
    def test_triplets_round_trip_exactly(self, tmp_path):
        term_lists = {"u1": ["a", "a", "b"], "u2": ["a", "c"], "u3": ["b", "c", "c"]}
        matrix = build_text_matrix(counts_of(term_lists), min_user_support=2)
        write_matrix(
            matrix,
            tmp_path / "m.triplets",
            tmp_path / "m.vocab.tsv",
            tmp_path / "m.users.txt",
        )
        dense = matrix.dense(range(matrix.shape[0]))
        for line in (tmp_path / "m.triplets").read_text().splitlines():
            i, j, value = line.split()
            assert float(value) == dense[int(i), int(j)]
        vocab_lines = (tmp_path / "m.vocab.tsv").read_text().splitlines()
        assert vocab_lines[0] == "term\tusers\tidf"
        assert len(vocab_lines) - 1 == len(matrix.vocabulary)
        users = (tmp_path / "m.users.txt").read_text().split()
        assert users == list(matrix.user_ids)
