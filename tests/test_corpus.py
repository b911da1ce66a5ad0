"""Tests for corpus ingestion, tokenization, and entity extraction."""

import builtins
import contextlib
import dataclasses
import json
import multiprocessing
import os
import random
import re
import signal
import threading
import time
import tracemalloc
import unicodedata
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus_reference
from interactions import graph_of
from polistance import corpus
from polistance.features import PARTIES, default_lexicon
from polistance.graph import InteractionFold, build_interaction_graph
from polistance.pipeline import FOLDS, TermBagFold
from polistance.synth import SyntheticSpec, write_synthetic
from polistance.corpus import (
    DEFAULT_STOPWORDS,
    STRICTNESS,
    CorpusError,
    Tweet,
    UserProfile,
    canonical_dumps,
    extract_entities,
    format_timestamp,
    parse_corpus,
    parse_rfc3339,
    tokenize,
    write_corpus,
)


def scanner_tokenize(text, stop=DEFAULT_STOPWORDS):
    """Regex-free character-scanner reimplementation, used as oracle."""
    pieces = []
    current = []
    for ch in text:
        if ch.isspace():
            if current:
                pieces.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        pieces.append("".join(current))

    def url_like(s):
        return s[:4] == "http" or s[:4] == "www."

    def wordy(c):
        return c.isalnum() or unicodedata.category(c)[0] == "M"

    out = []
    for piece in pieces:
        low = "".join(c.lower() for c in piece)
        if low[0] == "#" or low[0] == "@" or url_like(low):
            continue
        first = None
        last = None
        for i, c in enumerate(low):
            if wordy(c):
                if first is None:
                    first = i
                last = i
        if first is None:
            continue
        word = low[first : last + 1]
        if word in stop or url_like(word):
            continue
        out.append(word)
    return out


class TestTokenize:
    def test_retweet_line(self):
        text = "RT @user Modi ka rally http://t.co/x #NaMo"
        assert tokenize(text) == ["modi", "rally"]

    def test_punctuation_trimmed_but_inner_kept(self):
        assert tokenize("Vote!! (today) it's co-operate") == [
            "vote",
            "today",
            "it's",
            "co-operate",
        ]

    def test_url_survives_paren_wrapping(self):
        # after trimming "(http://x.co)" the remainder still looks like a URL
        assert tokenize("see (http://x.co) now") == ["see", "now"]

    def test_www_prefix_dropped(self):
        assert tokenize("visit www.example.com today") == ["visit", "today"]

    def test_stopwords_case_insensitive(self):
        assert tokenize("RT rt Rt kA Ke ki &amp;") == []

    def test_devanagari_tokens_kept(self):
        # the default stoplist is romanized, so Devanagari "की" stays
        assert tokenize("मोदी जी की रैली!") == ["मोदी", "जी", "की", "रैली"]

    def test_matches_scanner_on_fixture_lines(self):
        lines = [
            "RT @aap: Kejriwal's #jhadu sweeps Delhi! http://t.co/abc",
            "@user1 @user2 ...nothing but #tags here...",
            "'quoted' -- dashed -- & 100% numeric 42",
            "   ",
            "ka ke ki rt RT",
        ]
        for line in lines:
            assert tokenize(line) == scanner_tokenize(line)

    @settings(max_examples=200)
    @given(
        st.text(
            alphabet=st.sampled_from(
                list("abcXYZ019#@._-!'&/: \t\n") + ["म", "ো", "η"]
            ),
            max_size=40,
        )
    )
    def test_matches_scanner_everywhere(self, text):
        assert tokenize(text) == scanner_tokenize(text)

    @settings(max_examples=200)
    @given(st.text(max_size=60))
    def test_output_invariants(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert token[0] not in "#@"
            assert not token.startswith(("http", "www."))
            assert token not in DEFAULT_STOPWORDS


class TestEntities:
    def test_extraction_order_and_dedup(self):
        tags, mentions = extract_entities("Vote @Ramesh! #NaMo rally #namo @ramesh #AAP")
        assert tags == ["namo", "aap"]
        assert mentions == ["ramesh"]

    def test_no_entities(self):
        assert extract_entities("plain words only") == ([], [])


class TestTimestamps:
    def test_offset_converted_to_utc(self):
        dt = parse_rfc3339("2014-03-07T20:34:05+05:30")
        assert dt == datetime(2014, 3, 7, 15, 4, 5, tzinfo=timezone.utc)

    def test_z_suffix(self):
        dt = parse_rfc3339("2014-03-07T15:04:05Z")
        assert dt.tzinfo == timezone.utc
        assert dt.hour == 15

    def test_subsecond_truncated(self):
        assert parse_rfc3339("2014-01-01T00:00:00.999Z").microsecond == 0

    def test_naive_rejected(self):
        with pytest.raises(ValueError):
            parse_rfc3339("2014-03-07T15:04:05")

    def test_format_round_trip(self):
        stamp = "2014-04-12T08:00:59Z"
        assert format_timestamp(parse_rfc3339(stamp)) == stamp

    @pytest.mark.parametrize("stamp", [
        "0001-01-01T00:00:00Z",
        "0999-12-31T23:59:59Z",
        "1000-01-01T00:00:00Z",
        "9999-12-31T23:59:59Z",
    ])
    def test_format_round_trip_pads_every_year(self, stamp):
        # a year below 1000 keeps its leading zeros, or the parser would
        # reject what the writer wrote
        assert format_timestamp(parse_rfc3339(stamp)) == stamp

    def test_format_converts_an_offset_to_utc(self):
        moment = datetime(2014, 3, 7, 20, 34, 5, 999999,
                          tzinfo=timezone(timedelta(hours=5, minutes=30)))
        assert format_timestamp(moment) == "2014-03-07T15:04:05Z"
        assert format_timestamp(parse_rfc3339("0999-06-01T03:00:00+05:30")) == (
            "0999-05-31T21:30:00Z"
        )

    def test_format_rejects_a_naive_datetime(self):
        with pytest.raises(ValueError, match="naive datetime"):
            format_timestamp(datetime(2014, 3, 7, 15, 4, 5))


TEXTS = st.text(alphabet=st.sampled_from("ab\"\\/\n\x00\x7fé€मो😀\u2028")) | st.text()
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers(-(1 << 80), 1 << 80)
    | TEXTS
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


class TestCanonicalDumps:
    @settings(max_examples=300)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, value):
        # the reused encoder writes what json.dumps writes with the same
        # settings, so no artifact's bytes depend on which of the two ran
        assert canonical_dumps(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)

    def test_sorts_keys_and_keeps_text(self):
        assert canonical_dumps({"b": [1.5, "मोदी"], "a": {"z": None, "y": 10 ** 20}}) == (
            '{"a":{"y":100000000000000000000,"z":null},"b":[1.5,"मोदी"]}'
        )


def make_tweet(i=0, **kwargs):
    base = dict(
        tweet_id=f"t{i}",
        author_id=f"u{i}",
        author_screen_name=f"user{i}",
        created_at=datetime(2014, 3, 1, 12, 0, i % 60, tzinfo=timezone.utc),
        text=f"tweet number {i} #poll",
        hashtags=("poll",),
        mentions=(),
    )
    base.update(kwargs)
    return Tweet(**base)


def make_profile(i=0, **kwargs):
    base = dict(
        user_id=f"u{i}",
        screen_name=f"user{i}",
        followers_count=10 * i,
        friends_count=i,
        statuses_count=100,
        following=frozenset({"aamaadmiparty"}),
    )
    base.update(kwargs)
    return UserProfile(**base)


class TestParseCorpus:
    def test_line_accounting(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            json.dumps({"kind": "tweet", "tweet_id": "1", "author_id": "a",
                        "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                        "text": "hello #One"}),
            "",
            "not json at all",
            json.dumps({"kind": "profile", "user_id": "u1", "screen_name": "A",
                        "followers_count": 1, "friends_count": 2, "statuses_count": 3}),
            json.dumps({"kind": "mystery"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tweets, profiles, skipped = parse_corpus(path)
        assert len(tweets) == 1
        assert len(profiles) == 1
        assert skipped == 3
        assert len(tweets) + len(profiles) + skipped == len(lines)

    def test_entities_extracted_when_fields_absent(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                  "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                  "text": "RT @Friend see #NaMo"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        tweets, _, _ = parse_corpus(path)
        assert tweets[0].hashtags == ("namo",)
        assert tweets[0].mentions == ("friend",)

    def test_explicit_empty_entity_lists_respected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                  "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                  "text": "see #NaMo", "hashtags": [], "mentions": []}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        tweets, _, _ = parse_corpus(path)
        assert tweets[0].hashtags == ()

    def test_names_lowercased(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                  "author_screen_name": "BigFan", "created_at": "2014-01-01T00:00:00Z",
                  "text": "x", "retweet_of": "@NarendraModi"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        tweets, _, _ = parse_corpus(path)
        assert tweets[0].author_screen_name == "bigfan"
        assert tweets[0].retweet_of == "narendramodi"

    def test_self_retweet_normalized_away(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                  "author_screen_name": "Echo", "created_at": "2014-01-01T00:00:00Z",
                  "text": "x", "retweet_of": "echo"}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        tweets, _, _ = parse_corpus(path)
        assert tweets[0].retweet_of is None

    @pytest.mark.parametrize("field,value", [
        ("author_screen_name", "a b"),
        ("author_screen_name", "x\ny"),
        ("retweet_of", "d e"),
        ("hashtags", ["ok", "tab\tbed"]),
        ("mentions", [" lead"]),
        ("screen_name", "p q"),
        ("following", ["fine", "line\u2028break"]),
        ("following", ["@"]),
    ])
    def test_spaced_or_empty_name_skipped_or_strict_error(self, tmp_path,
                                                          field, value):
        # graph.edges, partition.txt and users.txt hold one name per
        # whitespace-separated field, so such a name would break their lines
        tweet = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                 "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                 "text": "x"}
        profile = {"kind": "profile", "user_id": "u1", "screen_name": "B",
                   "followers_count": 1, "friends_count": 2, "statuses_count": 3}
        if field in ("screen_name", "following"):
            bad = dict(profile, **{field: value})
        else:
            bad = dict(tweet, tweet_id="2", **{field: value})
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(tweet) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        tweets, profiles, skipped = parse_corpus(path)
        assert (len(tweets), len(profiles), skipped) == (1, 0, 1)
        with pytest.raises(CorpusError, match=f":2: bad name in '{field}'"):
            parse_corpus(path, strictness="strict")

    @pytest.mark.parametrize("field,value", [
        ("text", "hi \ud800"),
        ("author_screen_name", "a\udc00"),
        ("mentions", ["ok", "\ud83dx"]),
        ("following", ["fine", "\udfff"]),
        ("location", "delhi \ud800"),
    ], ids=["text", "author", "mention", "following", "location"])
    def test_lone_surrogate_skipped_or_strict_error(self, tmp_path, field, value):
        # json.dumps writes a lone surrogate as a valid \u escape, and no
        # UTF-8 file written from the record could hold it
        tweet = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                 "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                 "text": "x"}
        profile = {"kind": "profile", "user_id": "u1", "screen_name": "B",
                   "followers_count": 1, "friends_count": 2, "statuses_count": 3}
        if field in ("following", "location"):
            bad = dict(profile, **{field: value})
        else:
            bad = dict(tweet, tweet_id="2", **{field: value})
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(tweet) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        tweets, profiles, skipped = parse_corpus(path)
        assert (len(tweets), len(profiles), skipped) == (1, 0, 1)
        with pytest.raises(CorpusError, match=":2: a string holds a lone surrogate"):
            parse_corpus(path, strictness="strict")

    def test_escaped_surrogate_pair_accepted(self, tmp_path):
        record = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                  "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                  "text": "vote \ud83d\ude00"}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
        tweets, _, _ = parse_corpus(path, strictness="strict")
        assert tweets[0].text == "vote \U0001f600"

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+00:01",
                                       "9999-12-31T23:59:59-00:01"])
    def test_out_of_range_timestamp_skipped_or_strict_error(self, tmp_path, stamp):
        # the offset moves the instant before year 1 or past year 9999
        tweet = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                 "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                 "text": "x"}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(tweet) + "\n"
                        + json.dumps(dict(tweet, tweet_id="2", created_at=stamp)) + "\n",
                        encoding="utf-8")
        tweets, profiles, skipped = parse_corpus(path)
        assert (len(tweets), len(profiles), skipped) == (1, 0, 1)
        message = f":2: timestamp '{stamp}' is out of range"
        with pytest.raises(CorpusError, match=re.escape(message)):
            parse_corpus(path, strictness="strict")

    def test_duplicate_tweet_id_skipped_or_strict_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                  "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                  "text": "x"}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n",
                        encoding="utf-8")
        tweets, _, skipped = parse_corpus(path)
        assert len(tweets) == 1 and skipped == 1
        with pytest.raises(CorpusError, match=":2:"):
            parse_corpus(path, strictness="strict")

    def test_strict_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            parse_corpus(path, strictness="strict")

    def test_strict_allows_blank_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"kind": "profile", "user_id": "u", "screen_name": "a",
                  "followers_count": 0, "friends_count": 0, "statuses_count": 0}
        path.write_text("\n" + json.dumps(record) + "\n\n", encoding="utf-8")
        _, profiles, skipped = parse_corpus(path, strictness="strict")
        assert len(profiles) == 1 and skipped == 2

    def test_geo_validation(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                "text": "x", "geo": {"lat": 28.6, "lon": 77.2}}
        bad = dict(good, tweet_id="2", geo={"lat": 120.0, "lon": 0.0})
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        tweets, _, skipped = parse_corpus(path)
        assert tweets[0].geo == (28.6, 77.2)
        assert skipped == 1

    @pytest.mark.parametrize("strictness", STRICTNESS)
    def test_boolean_geo_rejected(self, tmp_path, strictness):
        # bool is an int subclass, but true is not a latitude
        good = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
                "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
                "text": "x", "geo": {"lat": 1, "lon": 0.0}}
        bad = dict(good, tweet_id="2", geo={"lat": True, "lon": False})
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        if strictness == "strict":
            with pytest.raises(CorpusError, match=":2: geo coordinates must be numbers"):
                parse_corpus(path, strictness=strictness)
        else:
            tweets, _, skipped = parse_corpus(path, strictness=strictness)
            assert [tweet.geo for tweet in tweets] == [(1.0, 0.0)]
            assert skipped == 1

    def test_unknown_strictness_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            parse_corpus(tmp_path / "nope.jsonl", strictness="lenient")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            parse_corpus(tmp_path / "nope.jsonl")

    def test_last_line_without_newline_is_parsed_and_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = dict(TWEET, tweet_id="1")
        last = dict(TWEET, tweet_id="2")
        path.write_text(json.dumps(first) + "\n\n" + json.dumps(last), encoding="utf-8")
        tweets, _, skipped = parse_corpus(path, strictness="strict")
        assert [t.tweet_id for t in tweets] == ["1", "2"]
        assert skipped == 1

    def test_crlf_file_parses_like_lf_file(self, tmp_path):
        lines = [json.dumps(dict(TWEET, tweet_id=str(i))) for i in range(3)]
        lines.insert(1, "")
        lf = tmp_path / "lf.jsonl"
        crlf = tmp_path / "crlf.jsonl"
        lf.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
        crlf.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        assert parse_corpus(crlf, strictness="strict") == parse_corpus(lf, strictness="strict")
        assert parse_corpus(crlf)[2] == 1

    def test_strict_error_after_blank_lines_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n\n" + json.dumps(TWEET) + "\n\n{broken\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"c\.jsonl:5: invalid JSON: .*line 1 column 2"):
            parse_corpus(path, strictness="strict")

    def test_strict_error_midway_leaves_no_open_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(dict(TWEET, tweet_id=str(i))) for i in range(5)]
        lines[2] = json.dumps({"kind": "mystery"})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(builtins.open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(corpus, "open", recording_open, raising=False)
        with pytest.raises(CorpusError, match=":3: unknown kind"):
            parse_corpus(path, strictness="strict")
        assert len(handles) == 1 and handles[0].closed


TWEET = {"kind": "tweet", "tweet_id": "1", "author_id": "a",
         "author_screen_name": "A", "created_at": "2014-01-01T00:00:00Z",
         "text": "x"}


class TestSharedNames:
    def test_one_author_one_name_object(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [
            dict(TWEET, tweet_id="1", author_screen_name="Modi", author_id="7"),
            dict(TWEET, tweet_id="2", author_screen_name="MODI", author_id="7"),
            dict(TWEET, tweet_id="3", author_screen_name="fan",
                 text="hi @Modi #Vote", retweet_of="modi"),
            dict(TWEET, tweet_id="4", author_screen_name="fan2",
                 mentions=["@modi"], hashtags=["#vote"]),
            {"kind": "profile", "user_id": "9", "screen_name": "fan",
             "followers_count": 0, "friends_count": 0, "statuses_count": 0,
             "following": ["@Modi"]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        tweets, profiles, _ = parse_corpus(path, strictness="strict")
        name = tweets[0].author_screen_name
        assert tweets[1].author_screen_name is name
        assert tweets[0].author_id is tweets[1].author_id
        assert tweets[2].mentions[0] is name
        assert tweets[2].retweet_of is name
        assert tweets[3].mentions[0] is name
        assert tweets[3].hashtags[0] is tweets[2].hashtags[0]
        assert next(iter(profiles[0].following)) is name
        assert profiles[0].screen_name is tweets[2].author_screen_name

    def test_records_have_no_instance_dict(self):
        tweet, profile = make_tweet(), make_profile()
        for record in (tweet, profile):
            assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            tweet.author_screen_name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.screen_name = "other"

    # None marks a rejected record
    @pytest.mark.parametrize("raw,expected", [
        ("#Modi", {"author": "#modi", "hashtag": "modi", "mention": None,
                   "retweet_of": "#modi", "following": "#modi", "screen_name": "#modi"}),
        ("@Modi", {"author": "@modi", "hashtag": None, "mention": "modi",
                   "retweet_of": "modi", "following": "modi", "screen_name": "@modi"}),
        ("Mo di", {"author": None, "hashtag": None, "mention": None,
                   "retweet_of": None, "following": None, "screen_name": None}),
    ])
    def test_each_field_normalizes_a_spelling_its_own_way(self, tmp_path, raw, expected):
        # parse_corpus remembers the spellings each name field accepted; a
        # field must never take another field's result, and a spelling
        # rejected once is rejected on every later line
        records = [{"kind": "profile", "user_id": "s", "screen_name": raw,
                    "followers_count": 0, "friends_count": 0, "statuses_count": 0}]
        for round_ in "12":
            records += [
                dict(TWEET, tweet_id=round_ + "author", author_screen_name=raw),
                dict(TWEET, tweet_id=round_ + "hashtag", hashtags=[raw]),
                dict(TWEET, tweet_id=round_ + "mention", mentions=[raw]),
                dict(TWEET, tweet_id=round_ + "retweet_of", retweet_of=raw),
                {"kind": "profile", "user_id": round_ + "following",
                 "screen_name": "fan" + round_, "followers_count": 0,
                 "friends_count": 0, "statuses_count": 0, "following": [raw]},
            ]
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        tweets, profiles, skipped = parse_corpus(path)
        by_id = {t.tweet_id: t for t in tweets} | {p.user_id: p for p in profiles}

        def name(record_id, read):
            record = by_id.get(record_id)
            return None if record is None else read(record)

        for round_ in "12":
            found = {
                "author": name(round_ + "author", lambda t: t.author_screen_name),
                "hashtag": name(round_ + "hashtag", lambda t: t.hashtags[0]),
                "mention": name(round_ + "mention", lambda t: t.mentions[0]),
                "retweet_of": name(round_ + "retweet_of", lambda t: t.retweet_of),
                "following": name(round_ + "following", lambda p: min(p.following)),
                "screen_name": name("s", lambda p: p.screen_name),
            }
            assert found == expected
        assert skipped == 2 * list(expected.values()).count(None) - (
            expected["screen_name"] is None)


class RecordingSink:
    """A parse_corpus sink that keeps what it is given, in order."""

    def __init__(self):
        self.seen = []

    def append(self, tweet):
        self.seen.append(tweet)

    def __len__(self):
        return len(self.seen)


def sink_corpus_lines():
    """Valid tweets and profiles with one line of each kind that parse_corpus
    skips: the benchmark's five bad-line kinds, then a lone surrogate; a
    self-retweet is valid but carries no relation."""
    def line(**fields):
        return json.dumps(dict(TWEET, **fields)).encode()

    def profile(name):
        return json.dumps({"kind": "profile", "user_id": name, "screen_name": name,
                           "followers_count": 1, "friends_count": 2,
                           "statuses_count": 3}).encode()

    first = line(tweet_id="t1", author_screen_name="Alice", text="@bob @carol hi")
    second = line(tweet_id="t2", author_screen_name="Bob", retweet_of="@Alice",
                  mentions=["Carol"])
    third = line(tweet_id="t3", author_screen_name="Carol", text="#x",
                 mentions=["Alice", "alice"])
    return [
        first,
        profile("alice"),
        second,
        first[: len(first) // 2],  # bad-json
        third,
        second[:10] + b"\xff\xfe" + second[10:],  # bad-utf8
        third.replace(b'"kind": "tweet"', b'"kind": "retweet"'),  # unknown-kind
        third,  # duplicate-id
        b" ",  # blank
        line(tweet_id="t4", text="hi \ud800"),  # lone surrogate
        line(tweet_id="t5", author_screen_name="Dave", retweet_of="@dave",
             mentions=["eve"]),  # self-retweet
        profile("bob"),
        line(tweet_id="t6", author_screen_name="Eve", text="@alice"),
    ]


SINKS = {
    "list": list,
    "recording": RecordingSink,
    "interaction-fold": InteractionFold,
    "term-bag-fold": lambda: TermBagFold("text"),
}


class TestTweetSink:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(sink_corpus_lines()) + b"\n")
        return path

    def test_a_sink_gets_the_listed_tweets_in_order(self, path):
        listed, profiles, skipped = parse_corpus(path)
        assert [t.tweet_id for t in listed] == ["t1", "t2", "t3", "t5", "t6"]
        sink = RecordingSink()
        returned, sink_profiles, sink_skipped = parse_corpus(path, tweets=sink)
        assert returned is sink
        assert sink.seen == listed
        assert (sink_profiles, sink_skipped) == (profiles, skipped)

    @pytest.mark.parametrize("make", SINKS.values(), ids=SINKS)
    def test_every_line_is_a_record_or_skipped(self, path, make):
        tweets, profiles, skipped = parse_corpus(path, tweets=make())
        assert (len(tweets), len(profiles), skipped) == (5, 2, 6)
        assert len(tweets) + len(profiles) + skipped == len(sink_corpus_lines())

    @pytest.mark.parametrize("bad", [3, 5, 6, 7, 9],
                             ids=["bad-json", "bad-utf8", "unknown-kind",
                                  "duplicate-id", "lone-surrogate"])
    def test_strict_error_does_not_depend_on_the_sink(self, tmp_path, bad):
        lines = sink_corpus_lines()
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(lines[:3] + [lines[4], lines[bad]]) + b"\n")
        messages = []
        for make in SINKS.values():
            with pytest.raises(CorpusError) as info:
                parse_corpus(path, strictness="strict", tweets=make())
            messages.append(str(info.value))
        assert messages[0].startswith(f"{path}:5: ")
        assert messages == [messages[0]] * len(SINKS)
        sink = RecordingSink()
        with pytest.raises(CorpusError):
            parse_corpus(path, strictness="strict", tweets=sink)
        assert [t.tweet_id for t in sink.seen] == ["t1", "t2", "t3"]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_fold_graph_is_the_graph_of_the_listed_tweets(self, path, weighted):
        listed, _, _ = parse_corpus(path)
        fold, _, _ = parse_corpus(path, tweets=InteractionFold())
        folded = build_interaction_graph(fold, weighted)
        assert folded == graph_of(listed, weighted)
        pairs = {(folded.nodes[a], folded.nodes[b]): w for a, b, w in
                 zip(folded.heads.tolist(), folded.tails.tolist(),
                     folded.weights.tolist())}
        # the skipped duplicate of t3 adds no alice-carol event, and the
        # self-retweet adds no dave-dave edge
        expected = {("alice", "bob"): 2.0, ("alice", "carol"): 2.0,
                    ("alice", "eve"): 1.0, ("bob", "carol"): 1.0,
                    ("dave", "eve"): 1.0}
        assert pairs == (expected if weighted else dict.fromkeys(expected, 1.0))


# tweet ids that repeat across a small corpus, canonical and odd ones, in
# and out of order; screen names likewise
RANGE_IDS = ["1", "2", "3", "5", "8", "13", "07", "٧", str(2 ** 63), "9" * 19]
RANGE_NAMES = ["Alice", "bob", "carol", "Dave", "eve"]
# the benchmark's five bad-line kinds, and a repeated profile
BAD_KINDS = ["bad-json", "bad-utf8", "unknown-kind", "duplicate-id", "blank",
             "duplicate-profile"]


def range_tweet(tweet_id, author, others, retweet):
    record = dict(TWEET, tweet_id=tweet_id, author_screen_name=author,
                  mentions=others)
    if retweet is not None:
        record["retweet_of"] = retweet
    return json.dumps(record).encode()


def range_profile(name):
    return json.dumps({"kind": "profile", "user_id": name.lower(), "screen_name": name,
                       "followers_count": 1, "friends_count": 2,
                       "statuses_count": 3}).encode()


RANGE_TWEETS = st.builds(range_tweet, st.sampled_from(RANGE_IDS),
                         st.sampled_from(RANGE_NAMES),
                         st.lists(st.sampled_from(RANGE_NAMES), max_size=3),
                         st.none() | st.sampled_from(RANGE_NAMES))
BAD_LINES = st.sampled_from(BAD_KINDS).map(lambda kind: (kind, None))
RANGE_LINES = (RANGE_TWEETS.map(lambda line: ("tweet", line))
               | st.sampled_from(RANGE_NAMES).map(lambda n: ("profile", range_profile(n)))
               | BAD_LINES)


# what a bad line is made from when no tweet (or profile) line comes before it
FIRST_SOURCES = {"tweet": range_tweet("21", "zed", [], "Alice"),
                 "profile": range_profile("zed")}


def range_corpus_lines(kinds):
    """The lines of (kind, line) pairs; a bad line of a kind other than
    blank is made from the nearest tweet (or profile) line before it, as
    the benchmark makes them, or from one of ``FIRST_SOURCES``."""
    lines = []
    last = dict(FIRST_SOURCES)
    for kind, line in kinds:
        if kind in last:
            last[kind] = line
        elif kind == "bad-json":
            line = last["tweet"][: len(last["tweet"]) // 2]
        elif kind == "bad-utf8":
            line = last["tweet"][:10] + b"\xff\xfe" + last["tweet"][10:]
        elif kind == "unknown-kind":
            line = last["tweet"].replace(b'"kind": "tweet"', b'"kind": "retweet"')
        elif kind == "duplicate-id":
            line = last["tweet"]
        elif kind == "duplicate-profile":
            line = last["profile"]
        else:
            line = b" "
        lines.append(line)
    return lines


def write_padded(path, lines, width):
    """Write ``lines``, each padded with spaces to ``width`` bytes with its
    newline, so that where ``corpus._cuts`` cuts the file is known."""
    path.write_bytes(b"".join(line.ljust(width - 1) + b"\n" for line in lines))


def fold_state(fold):
    """Everything a fold holds, and the bytes of both graphs it builds."""
    graphs = [build_interaction_graph(fold, weighted) for weighted in (False, True)]
    return (list(fold._index), fold._authors.tobytes(), fold._targets.tobytes(),
            len(fold), [(g.nodes, g.heads.tobytes(), g.tails.tobytes(),
                         g.weights.tobytes()) for g in graphs])


def parse_both_ways(path, strictness, workers):
    """(fold state, profiles, skipped) or the strict message with the fold
    state at the raise, from ``parse_corpus`` serially and in ``workers``
    forked workers."""
    outcomes = []
    for forks in (False, True):
        fold = InteractionFold()
        with mock.patch.object(corpus, "_PARALLEL_BYTES", 1 if forks else 1 << 62), \
                mock.patch.object(corpus, "worker_count", lambda limit: min(limit, workers)):
            try:
                _, profiles, skipped = parse_corpus(path, strictness, fold)
            except CorpusError as exc:
                outcomes.append((str(exc), fold_state(fold)))
            else:
                outcomes.append((fold_state(fold), profiles, skipped))
        assert multiprocessing.active_children() == []
    return outcomes


@contextlib.contextmanager
def time_limit(seconds):
    """Turn a wait longer than ``seconds`` into a failure, not a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestParseInWorkers:
    """A corpus parsed in forked workers over byte ranges gives the serial
    parse's fold, profiles, skip count and strict message."""

    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(RANGE_LINES, min_size=2, max_size=24),
           workers=st.integers(2, 3), per_worker=st.integers(1, 2),
           edges=st.lists(st.tuples(BAD_LINES, BAD_LINES), min_size=5, max_size=5))
    def test_same_result_as_the_serial_parse(self, tmp_path_factory, kinds, workers,
                                             per_worker, edges):
        # every line padded to one width (a bad line is at most two bytes
        # longer than the line it is made from), so that where the ranges
        # are cut is known before the lines around each cut are put there
        width = 3 + max(len(line) for line in [*FIRST_SOURCES.values(), *(
            line for _, line in kinds if line is not None)])
        path = tmp_path_factory.mktemp("ranges") / "c.jsonl"
        write_padded(path, [b""] * len(kinds), width)
        ranges = workers * per_worker
        starts = [cut // width for cut in corpus._cuts(path, ranges)[1:-1]]
        for start, (before, after) in zip(starts, edges):
            kinds[start - 1], kinds[start] = before, after
        write_padded(path, range_corpus_lines(kinds), width)
        assert corpus._cuts(path, ranges)[1:-1] == [start * width for start in starts]
        with mock.patch.object(corpus, "_RANGES_PER_WORKER", per_worker):
            for strictness in STRICTNESS:
                serial, in_workers = parse_both_ways(path, strictness, workers)
                assert in_workers == serial

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("bad", [3, 5, 6, 7, 9],
                             ids=["bad-json", "bad-utf8", "unknown-kind",
                                  "duplicate-id", "lone-surrogate"])
    def test_strict_message_numbers_the_line_in_the_file(self, tmp_path, workers, bad):
        lines = sink_corpus_lines()
        filler = [range_tweet(str(100 + i), "Alice", ["bob"], None) for i in range(12)]
        path = tmp_path / "c.jsonl"
        # the bad line is the last, in the last range; a duplicate repeats
        # t3, from the first
        path.write_bytes(b"\n".join(lines[:3] + [lines[4]] + filler + [lines[bad]]) + b"\n")
        serial, in_workers = parse_both_ways(path, "strict", workers)
        assert serial[0].startswith(f"{path}:17: ")
        assert in_workers == serial

    def test_a_repeat_in_a_later_range_is_dropped_with_its_pairs(self, tmp_path):
        lines = sink_corpus_lines()
        path = tmp_path / "c.jsonl"
        # the second half repeats every record of the first
        path.write_bytes(b"\n".join(lines + lines) + b"\n")
        serial, in_workers = parse_both_ways(path, "skip-malformed", 2)
        assert in_workers == serial
        assert serial[2] == 6 + len(lines)

    @pytest.mark.parametrize("strictness", STRICTNESS)
    def test_a_repeat_of_a_middle_range_is_caught_in_the_last(self, tmp_path, monkeypatch,
                                                              strictness):
        lines = [range_tweet(str(100 + i), "Alice", ["bob"], None) for i in range(5)]
        lines.append(range_tweet("104", "zed", ["yan"], None))
        path = tmp_path / "c.jsonl"
        width = 1 + max(map(len, lines))
        write_padded(path, lines, width)
        assert [cut // width for cut in corpus._cuts(path, 3)] == [0, 3, 5, 6]
        monkeypatch.setattr(corpus, "_RANGES_PER_WORKER", 1)
        serial, in_workers = parse_both_ways(path, strictness, 3)
        assert in_workers == serial

    @pytest.mark.parametrize("strictness", STRICTNESS)
    def test_a_profile_of_a_middle_range_repeated_in_the_last_is_caught(
            self, tmp_path, monkeypatch, strictness):
        lines = [range_tweet(str(100 + i), "Alice", ["bob"], None) for i in range(3)]
        lines += [range_profile("alice"), lines[0].replace(b"100", b"103"),
                  range_profile("ALICE")]
        path = tmp_path / "c.jsonl"
        width = 1 + max(map(len, lines))
        write_padded(path, lines, width)
        assert [cut // width for cut in corpus._cuts(path, 3)] == [0, 3, 5, 6]
        monkeypatch.setattr(corpus, "_RANGES_PER_WORKER", 1)
        serial, in_workers = parse_both_ways(path, strictness, 3)
        assert in_workers == serial
        if strictness == "strict":
            assert serial[0] == f"{path}:6: duplicate profile 'alice'"

    def test_a_repeat_before_a_bad_line_of_its_range_is_the_strict_error(
            self, tmp_path, monkeypatch):
        lines = [range_tweet(str(100 + i), "Alice", ["bob"], None) for i in range(3)]
        # the second range repeats t100, then holds a line of bad JSON
        lines += [lines[0], lines[1][:20]]
        path = tmp_path / "c.jsonl"
        width = 1 + max(map(len, lines))
        write_padded(path, lines, width)
        assert [cut // width for cut in corpus._cuts(path, 2)] == [0, 3, 5]
        monkeypatch.setattr(corpus, "_RANGES_PER_WORKER", 1)
        serial, in_workers = parse_both_ways(path, "strict", 2)
        assert serial[0] == f"{path}:4: duplicate tweet_id '100'"
        assert in_workers == serial

    @pytest.mark.parametrize("strictness", STRICTNESS)
    def test_ranges_that_arrive_out_of_order_merge_in_file_order(
            self, tmp_path, monkeypatch, strictness):
        lines = sink_corpus_lines()
        path = tmp_path / "c.jsonl"
        # the second copy repeats every record of the first; under strict
        # its first line is the error
        path.write_bytes(b"\n".join(lines * 2) + b"\n")
        range_lines = corpus._range_lines

        def first_range_last(handle, size):
            if handle.tell() == 0:
                time.sleep(0.3)
            return range_lines(handle, size)

        monkeypatch.setattr(corpus, "_range_lines", first_range_last)
        serial, in_workers = parse_both_ways(path, strictness, 2)
        assert in_workers == serial

    def test_a_strict_parse_whose_only_skips_are_blank_lines_reads_once(self, tmp_path,
                                                                         monkeypatch):
        lines = [range_tweet(str(100 + i), "Alice", ["bob"], None) for i in range(12)]
        lines[9:9] = [b"\t"]
        lines[3:3] = [b"", b"  "]
        lines.append(range_profile("zed"))
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        parse_lines = corpus._parse_lines
        calls = []

        def recording(*args):
            # a worker appends to its own copy of the list
            calls.append(os.getpid())
            return parse_lines(*args)

        monkeypatch.setattr(corpus, "_parse_lines", recording)
        serial, in_workers = parse_both_ways(path, "strict", 2)
        assert serial[2] == 3
        assert in_workers == serial
        # the serial parse's one call, and none after the workers'
        assert calls == [os.getpid()]

    def test_a_bad_line_in_the_last_range_is_read_again_with_no_worker_left(
            self, tmp_path, monkeypatch):
        lines = [range_tweet(str(100 + i), "Alice", ["bob"], None) for i in range(12)]
        lines.append(lines[-1][:20])
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        parse_lines = corpus._parse_lines
        parent = os.getpid()
        children = []

        def recording(*args):
            if os.getpid() == parent:
                children.append(multiprocessing.active_children())
            return parse_lines(*args)

        monkeypatch.setattr(corpus, "_parse_lines", recording)
        serial, in_workers = parse_both_ways(path, "strict", 2)
        assert serial[0].startswith(f"{path}:13: invalid JSON: ")
        assert in_workers == serial
        # the serial parse, then the read again once every worker has ended
        assert children == [[], []]

    def test_a_worker_that_exits_fails_the_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(sink_corpus_lines()) + b"\n")
        parent = os.getpid()
        parse_lines = corpus._parse_lines

        def die_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return parse_lines(*args)

        monkeypatch.setattr(corpus, "_parse_lines", die_in_a_worker)
        with time_limit(60), pytest.raises(RuntimeError, match="exited with code 3"):
            corpus._parse_in_workers(path, False, InteractionFold(), 2)
        assert multiprocessing.active_children() == []

    def test_an_error_in_a_worker_reaches_the_caller(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(sink_corpus_lines()) + b"\n")

        def fail(*args):
            raise MemoryError("no room for this range")

        monkeypatch.setattr(corpus, "_parse_lines", fail)
        with time_limit(60), pytest.raises(MemoryError, match="no room for this range"):
            corpus._parse_in_workers(path, False, InteractionFold(), 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_each_worker_runs_on_one_cpu_of_its_own(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(sink_corpus_lines() * 2) + b"\n")
        mask = os.sched_getaffinity(0)
        pin = os.sched_setaffinity

        def recording(pid, cpus):
            pin(pid, cpus)
            with open(tmp_path / "cpus", "a") as seen:
                seen.write(f"{os.getpid()} {pid} {sorted(os.sched_getaffinity(0))}\n")

        monkeypatch.setattr(os, "sched_setaffinity", recording)
        corpus._parse_in_workers(path, False, InteractionFold(), 2)
        seen = [line.split(" ", 2) for line in (tmp_path / "cpus").read_text().splitlines()]
        assert len({who for who, _, _ in seen}) == 2
        assert str(os.getpid()) not in {who for who, _, _ in seen}
        assert sorted((pid, cpus) for _, pid, cpus in seen) == [
            ("0", f"[{cpu}]") for cpu in sorted(mask)[:2]]
        assert os.sched_getaffinity(0) == mask


class TestWhenTheParseForks:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The worker counts parse_corpus forks for, on a mask of two CPUs
        and a corpus counted large from 100 bytes."""
        calls = []

        def recording(path, strict, tweets, workers):
            calls.append(workers)
            return tweets, [], 0

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(corpus, "_PARALLEL_BYTES", 100)
        monkeypatch.setattr(corpus, "_parse_in_workers", recording)
        return calls

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(sink_corpus_lines()) + b"\n")
        return path

    @pytest.mark.parametrize("make", SINKS.values(), ids=SINKS)
    def test_only_an_empty_merging_sink_forks(self, forks, path, make):
        parse_corpus(path, tweets=make())
        assert forks == ([2] if make is InteractionFold else [])
        full = InteractionFold()
        full.append(parse_corpus(path)[0][0])
        parse_corpus(path, tweets=full)
        assert forks == ([2] if make is InteractionFold else [])

    def test_a_small_corpus_parses_serially(self, forks, path, monkeypatch):
        monkeypatch.setattr(corpus, "_PARALLEL_BYTES", path.stat().st_size + 1)
        parse_corpus(path, tweets=InteractionFold())
        assert forks == []

    def test_a_caller_with_another_thread_parses_serially(self, forks, path):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            fold, profiles, skipped = parse_corpus(path, tweets=InteractionFold())
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert forks == []
        assert (len(fold), len(profiles), skipped) == (5, 2, 6)

    @pytest.mark.parametrize("make", [InteractionFold,
                                      lambda: FOLDS["network"](default_lexicon(), 0)],
                             ids=["interaction-fold", "network-fold"])
    def test_a_large_corpus_gives_the_serial_result(self, tmp_path, monkeypatch, make):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join(sink_corpus_lines() * 3) + b"\n")
        serial = parse_both_ways(path, "skip-malformed", 1)[0]
        monkeypatch.setattr(corpus, "_PARALLEL_BYTES", 100)
        fold, profiles, skipped = parse_corpus(path, tweets=make())
        assert (fold_state(fold), profiles, skipped) == serial
        assert multiprocessing.active_children() == []


# canonical decimal ids, 19-digit ones among them, and a few spellings that
# must stay strings: a leading zero, a non-ASCII digit, a sign, 2**63 and
# more, 21 digits, an underscore or a space that int() would accept
CANONICAL_IDS = (st.integers(0, 40) | st.integers(10 ** 18, 10 ** 18 + 40)
                 | st.just(2 ** 63 - 1)).map(str)
ODD_IDS = st.sampled_from(["0", "00", "07", "٧", "-3", "+3", " 3", "3_0",
                           str(2 ** 63), "9" * 19, "1" + "0" * 20])


@st.composite
def id_sequences(draw):
    """Ids in one of the orders a corpus may hold them, repeats included."""
    ids = draw(st.lists(CANONICAL_IDS | ODD_IDS, max_size=80))
    order = draw(st.sampled_from(["drawn", "ascending", "jittered", "shuffled",
                                  "repeated"]))
    if order != "drawn":
        # numeric order for canonical ids
        ids.sort(key=lambda tweet_id: (len(tweet_id), tweet_id))
    if order == "jittered":
        for i in draw(st.lists(st.integers(0, max(len(ids) - 2, 0)), max_size=20)):
            ids[i:i + 2] = ids[i:i + 2][::-1]
    elif order == "shuffled":
        ids = draw(st.permutations(ids))
    elif order == "repeated":
        # every id again, once its first pass has put some in the late set
        ids = ids + draw(st.permutations(ids))
    return ids


class TestTweetIds:
    @settings(max_examples=300)
    @given(ids=id_sequences())
    # an ascending run, late ids between and beside held ones, then every id again
    @example(ids=[str(i) for i in range(100, 180)] + [str(i) for i in range(0, 200, 17)]
             + [str(i) for i in range(200)])
    @example(ids=["7", "07", "٧", "0", "00", str(2 ** 63), str(2 ** 63 - 1),
                  "07", "7", str(2 ** 63)])
    def test_add_agrees_with_a_set(self, ids):
        ledger, seen = corpus._TweetIds(), set()
        for tweet_id in ids:
            assert ledger.add(tweet_id) == (tweet_id not in seen), tweet_id
            seen.add(tweet_id)

    def test_shuffled_ids_hold_under_90_bytes_each(self):
        # shuffled ids land almost all in the fallback set as ints, about 74
        # bytes an id on Python 3.10 to 3.13, where a set of the 18-digit
        # id strings holds 101 to 109; ids in order take about 8.5
        ids = [str(10 ** 17 + 7 * i) for i in range(200_000)]
        random.Random(0).shuffle(ids)
        tracemalloc.start()
        try:
            ledger = corpus._TweetIds()
            for tweet_id in ids:
                ledger.add(tweet_id)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(ids) < 90

    def test_parse_into_a_fold_peaks_under_60_bytes_per_tweet(self, tmp_path):
        # with the duplicate check holding every id string in a set this
        # came to about 150 traced bytes per tweet; with the ids held as
        # ints in an array, 42 to 47 on Python 3.10 to 3.13
        spec = SyntheticSpec(users_per_party=dict.fromkeys(PARTIES, 100))
        path = tmp_path / "corpus.jsonl"
        data = write_synthetic(spec, path, tmp_path / "annotations.csv")
        n_tweets = len(data.tweets)
        del data
        parse_corpus(path, tweets=InteractionFold())  # imports and caches
        tracemalloc.start()
        try:
            parse_corpus(path, tweets=InteractionFold())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_tweets == 9000
        assert peak / n_tweets < 60


TWEETS = st.builds(
    Tweet,
    tweet_id=TEXTS,
    author_id=TEXTS,
    author_screen_name=TEXTS,
    created_at=st.datetimes(
        min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
        timezones=st.sampled_from([timezone.utc, timezone(timedelta(hours=5, minutes=30))])),
    text=TEXTS,
    hashtags=st.lists(TEXTS, max_size=3).map(tuple),
    mentions=st.lists(TEXTS, max_size=3).map(tuple),
    retweet_of=st.none() | TEXTS,
    geo=st.none() | st.tuples(st.floats(-90, 90), st.floats(-180, 180)),
)


class TestWriteCorpus:
    @settings(max_examples=200)
    @given(st.lists(TWEETS, max_size=3))
    @example([make_tweet(1, text="मोदी \"rally\"", hashtags=(), mentions=(),
                         retweet_of="user9", geo=(-0.0, 77.23)), make_tweet(2)])
    def test_tweet_lines_are_the_canonical_records(self, tmp_path_factory, tweets):
        # write_corpus writes each tweet's keys in sorted order directly;
        # the bytes must be what the sorting encoder writes for its record
        path = tmp_path_factory.getbasetemp() / "written.jsonl"
        write_corpus(path, tweets)
        assert path.read_text(encoding="utf-8") == "".join(
            canonical_dumps(corpus_reference.tweet_record(t)) + "\n" for t in tweets)


class TestRoundTrip:
    def test_write_parse_write_is_fixed_point(self, tmp_path):
        tweets = [
            make_tweet(1, retweet_of="user9", geo=(28.61, 77.23)),
            make_tweet(2, text="प्रचार #vote @user1", hashtags=("vote",),
                       mentions=("user1",)),
        ]
        profiles = [make_profile(1, location="Delhi"), make_profile(2)]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_corpus(first, tweets, profiles)
        t2, p2, skipped = parse_corpus(first, strictness="strict")
        assert skipped == 0
        assert t2 == tweets
        assert p2 == profiles
        write_corpus(second, t2, p2)
        assert first.read_bytes() == second.read_bytes()

    def test_parse_write_parse_keeps_records(self, tmp_path):
        source = tmp_path / "source.jsonl"
        records = [
            dict(TWEET, tweet_id="1", author_screen_name="Modi", text="#NaMo @Fan"),
            dict(TWEET, tweet_id="2", author_screen_name="fan", retweet_of="@MODI",
                 mentions=["Modi", "modi"], geo={"lat": 28.6, "lon": 77.2}),
            {"kind": "profile", "user_id": "9", "screen_name": "Fan",
             "followers_count": 1, "friends_count": 2, "statuses_count": 3,
             "following": ["modi", "@Modi"], "location": "Delhi"},
        ]
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        first = parse_corpus(source, strictness="strict")
        written = tmp_path / "written.jsonl"
        write_corpus(written, first[0], first[1])
        second = parse_corpus(written, strictness="strict")
        assert second == first
        assert second[0][1].mentions == ("modi",)
        assert second[1][0].following == frozenset({"modi"})
