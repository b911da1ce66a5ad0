"""Tests for TF-IDF matrices, party lexicons, and user feature vectors."""

import json
import math
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import features_reference as ref
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
from polistance.pipeline import ProfileFold


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

    def test_support_below_one_rejected(self):
        with pytest.raises(FeatureError, match="min_user_support must be >= 1"):
            build_text_matrix(counts_of({"u1": ["a"]}), min_user_support=0)

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


def folded(profiles, tweets, lexicon):
    """The vectors of ``profiles`` once a ProfileFold has taken ``tweets``."""
    fold = ProfileFold(lexicon)
    for tweet in tweets:
        fold.append(tweet)
    assert len(fold) == len(tweets)
    return fold.vectors(profiles)


def folded_one(profile, tweets, lexicon):
    return folded([profile], tweets, lexicon)[profile.screen_name]


HAND_LEXICON = PartyLexicon(parties={
    "AAP": PartyTerms(frozenset({"jhadu"}), frozenset({"aap"}),
                      frozenset({"aamaadmiparty"})),
    "BJP": PartyTerms(frozenset({"namo", "modi"}), frozenset({"namo"}),
                      frozenset({"bjp4india"})),
    "CONG": PartyTerms(frozenset({"rahul"}), frozenset({"inc"}),
                       frozenset({"incindia"})),
})


class TestUserFeatureVector:
    def test_following_bits(self):
        lexicon = default_lexicon()
        profile = UserProfile("u1", "fan", 10, 20, 30,
                              following=frozenset({"arvindkejriwal"}))
        named = dict(zip(FEATURE_NAMES, user_feature_vector(profile, (0,) * 6, lexicon)))
        assert (named["following_aap"], named["following_bjp"],
                named["following_cong"]) == (1, 0, 0)

    def test_counts_are_the_last_six_features(self):
        profile = UserProfile("u1", "fan", 10, 20, 30)
        vector = user_feature_vector(profile, (1, 2, 3, 4, 5, 6), default_lexicon())
        assert vector == (20, 10, 0, 0, 0, 1, 2, 3, 4, 5, 6)

    def test_word_occurrences_counted(self):
        lexicon = default_lexicon()
        profile = UserProfile("u1", "fan", 0, 0, 0)
        tweets = [tweet_for("fan", "kejriwal kejriwal speaks")]
        vector = folded_one(profile, tweets, lexicon)
        assert vector[FEATURE_NAMES.index("aap_words")] == 2

    def test_full_vector_matches_hand_count(self):
        profile = UserProfile("u1", "voter", followers_count=55, friends_count=44,
                              statuses_count=99,
                              following=frozenset({"bjp4india", "incindia", "other"}))
        tweets = [
            tweet_for("voter", "modi and namo wave", hashtags=("namo", "trend")),
            tweet_for("voter", "jhadu sweeps", hashtags=("aap", "namo")),
            tweet_for("voter", "rahul rahul rahul", hashtags=("inc",)),
        ]
        vector = folded_one(profile, tweets, HAND_LEXICON)
        assert vector == (44, 55, 0, 1, 1, 1, 2, 3, 1, 2, 1)
        assert len(FEATURE_NAMES) == 11

    def test_hashtags_and_mentions_in_text_are_not_words(self):
        # "#namo" counts only through the tweet's hashtags, "@modi" and the
        # url not at all; case and punctuation around a keyword do not matter
        profile = UserProfile("u1", "voter", 0, 0, 0)
        tweets = [tweet_for("voter", "#namo @modi http://modi.in Jhadu! (RAHUL),",
                            hashtags=("namo",))]
        assert folded_one(profile, tweets, HAND_LEXICON)[5:] == (1, 0, 1, 0, 1, 0)

    def test_term_of_two_parties_counts_for_both(self):
        lexicon = PartyLexicon(parties={
            "AAP": PartyTerms(frozenset({"swaraj"}), frozenset({"vote"}), frozenset()),
            "BJP": PartyTerms(frozenset(), frozenset({"vote"}), frozenset()),
            "CONG": PartyTerms(frozenset({"swaraj"}), frozenset(), frozenset()),
        })
        profile = UserProfile("u1", "voter", 0, 0, 0)
        tweets = [tweet_for("voter", "swaraj swaraj", hashtags=("vote",))]
        assert folded_one(profile, tweets, lexicon)[5:] == (2, 0, 2, 1, 1, 0)

    def test_tweet_order_irrelevant(self):
        lexicon = default_lexicon()
        profile = UserProfile("u1", "voter", 1, 2, 3)
        tweets = [
            tweet_for("voter", "modi rally", hashtags=("namo",)),
            tweet_for("voter", "kejriwal speech", hashtags=("aap",)),
            tweet_for("voter", "congress manifesto", hashtags=()),
        ]
        forward = folded_one(profile, tweets, lexicon)
        backward = folded_one(profile, tweets[::-1], lexicon)
        assert forward == backward

    def test_tweets_count_for_their_author_only(self):
        # the fold keys its counts by author, so another author's tweet
        # cannot reach this profile's vector
        lexicon = default_lexicon()
        voter = UserProfile("u1", "voter", 1, 2, 3)
        other = UserProfile("u2", "other", 4, 5, 6)
        tweets = [tweet_for("other", "modi modi", hashtags=("namo",)),
                  tweet_for("voter", "kejriwal")]
        vectors = folded([voter, other], tweets, lexicon)
        assert vectors == {"other": (5, 4, 0, 0, 0, 0, 2, 0, 0, 1, 0),
                           "voter": (2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0)}

    def test_profile_without_tweets_counts_zero_hits(self):
        profile = UserProfile("u1", "quiet", 7, 8, 9, following=frozenset({"incindia"}))
        assert folded_one(profile, [tweet_for("loud", "modi")], default_lexicon()) == (
            8, 7, 0, 0, 1, 0, 0, 0, 0, 0, 0)


# small pools, so that terms repeat across parties, tweets and authors
TERMS = ["modi", "namo", "aap", "rahul", "inc", "jhadu"]
SEEDS = ["s1", "s2", "s3", "s4"]
AUTHORS = ["a", "b", "c", "d"]


@st.composite
def lexicons(draw):
    """A lexicon in which at least one keyword and one hashtag are listed
    under two parties."""
    buckets = {party: {"keywords": set(draw(st.sets(st.sampled_from(TERMS)))),
                       "hashtags": set(draw(st.sets(st.sampled_from(TERMS)))),
                       "seed_accounts": set()}
               for party in PARTIES}
    for bucket in ("keywords", "hashtags"):
        term = draw(st.sampled_from(TERMS))
        for party in draw(st.permutations(PARTIES))[:2]:
            buckets[party][bucket].add(term)
    for seed in SEEDS:  # a seed account belongs to at most one party
        party = draw(st.sampled_from([*PARTIES, None]))
        if party is not None:
            buckets[party]["seed_accounts"].add(seed)
    return PartyLexicon(parties={party: PartyTerms(**{
        bucket: frozenset(values) for bucket, values in terms.items()})
        for party, terms in buckets.items()})


def spellings(term):
    """Ways a tweet's text may carry ``term``: those that tokenize to it,
    and those that do not (a hashtag, a mention, inside a url)."""
    return [term, term.upper(), term.title(), f"{term}!", f"({term}),", f'"{term}"',
            f"#{term}", f"@{term}", f"http://t.co/{term}", f"www.{term}.in",
            f"{term}s", "the", "vote"]


@st.composite
def tweets_of(draw):
    words = draw(st.lists(st.sampled_from(TERMS).flatmap(
        lambda term: st.sampled_from(spellings(term))), max_size=8))
    return tweet_for(draw(st.sampled_from(AUTHORS)), " ".join(words) or "-",
                     draw(st.lists(st.sampled_from([*TERMS, "other"]), max_size=4)))


@st.composite
def profiles_of(draw):
    # "e" writes no tweet; the authors left out have no profile
    names = draw(st.sets(st.sampled_from([*AUTHORS, "e"])))
    return [UserProfile(f"id-{name}", name, draw(st.integers(0, 9)),
                        draw(st.integers(0, 9)), 0,
                        following=frozenset(draw(st.sets(st.sampled_from([*SEEDS, "x"])))))
            for name in names]


@settings(max_examples=200, deadline=None)
@given(lexicon=lexicons(), tweets=st.lists(tweets_of(), max_size=12),
       profiles=profiles_of())
def test_profile_fold_matches_the_grouped_reference(lexicon, tweets, profiles):
    assert folded(profiles, tweets, lexicon) == ref.vectors(tweets, profiles, lexicon)


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

    @pytest.mark.parametrize("raw, message", [
        (["AAP", "BJP", "CONG"], "lexicon must be an object keyed by party"),
        ({"AAP": {}, "BJP": ["modi"], "CONG": {}}, "party 'BJP' must map to an object"),
        ({"AAP": {"keyword": ["aap"]}, "BJP": {}, "CONG": {}},
         "unknown bucket ['keyword'] in 'AAP'"),
    ], ids=["top-level", "party", "bucket"])
    def test_malformed_shape_rejected_by_name(self, raw, message, tmp_path):
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(FeatureError) as caught:
            PartyLexicon.from_file(path)
        assert str(caught.value) == f"{path}: {message}"

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
