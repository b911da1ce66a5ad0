"""Tests for time bucketing, mention bucketing, and the written files."""

import csv
import json
import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polistance.analytics import IST_OFFSET_MINUTES, AnalysisFold, write_analysis
from polistance.corpus import CorpusError, Tweet
from polistance.features import default_lexicon

UTC = timezone.utc


def tweet(tid, when, author="someone", text="", hashtags=()):
    return Tweet(
        tweet_id=str(tid),
        author_id="1",
        author_screen_name=author,
        created_at=when,
        text=text,
        hashtags=tuple(hashtags),
        mentions=(),
    )


def analysis(tweets, tz_offset_minutes=IST_OFFSET_MINUTES, lexicon=None):
    fold = AnalysisFold(lexicon or default_lexicon(), tz_offset_minutes)
    for t in tweets:
        fold.append(t)
    return fold.result()


def values(series):
    return tuple(v for _, v in series)


def total(series):
    return sum(values(series))


def bucket_starts(series):
    return tuple(t for t, _ in series)


def grid_total(grid):
    return sum(sum(row) for row in grid)


def cell(result, day, hour):
    """Count at Sunday-first ``day`` 1..7 and ``hour`` 0..23."""
    return result.day_hour[day - 1][hour]


def local_date(moment):
    return moment.strftime("%Y-%m-%d")


def iso_week(moment):
    return moment.isocalendar()[:2]


def random_tweets(n, seed, span_days=35):
    rng = np.random.default_rng(seed)
    start = datetime(2014, 3, 20, tzinfo=UTC)
    out = []
    for i in range(n):
        offset = timedelta(seconds=int(rng.integers(0, span_days * 86400)))
        out.append(tweet(i, start + offset, author=f"u{int(rng.integers(9))}"))
    return out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestTimeSeries:
    def test_mean_and_population_stddev(self):
        t0 = datetime(2014, 4, 7, 9, 0, tzinfo=UTC)
        tweets = [tweet(i, t0) for i in range(3)] + [tweet(3, t0 + timedelta(days=1))]
        result = analysis(tweets, 0)
        assert result.volume_mean == 2.0
        assert result.volume_stddev == 1.0  # population: sqrt((1+1)/2)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           span_days=st.integers(1, 80), offset=st.integers(-1439, 1439))
    @settings(max_examples=40, deadline=None)
    def test_outputs_are_gap_free(self, seed, n, span_days, offset):
        tweets = [
            tweet(t.tweet_id, t.created_at, text="modi", hashtags=["namo"])
            for t in random_tweets(n, seed, span_days)
        ]
        result = analysis(tweets, offset)
        days = bucket_starts(result.volume)
        assert all(b - a == timedelta(days=1) for a, b in zip(days, days[1:]))
        zone = timezone(timedelta(minutes=offset))
        local = [t.created_at.astimezone(zone) for t in tweets]
        assert days[0].date() == min(local).date()
        assert days[-1].date() == max(local).date()
        weeks = {bucket_starts(s) for s in result.mentions.values()}
        (weeks,) = weeks  # every party shares one axis
        assert all(b - a == timedelta(days=7) for a, b in zip(weeks, weeks[1:]))
        assert weeks[0] <= days[0] < weeks[0] + timedelta(days=7)
        assert weeks[-1] <= days[-1] < weeks[-1] + timedelta(days=7)
        # ranked weeks are the weeks that hold a hashtag, in time order
        ranked = bucket_starts(result.top_hashtags)
        assert list(ranked) == sorted(set(ranked)) and set(ranked) <= set(weeks)


class TestVolumeSeries:
    def test_two_day_example(self):
        t0 = datetime(2014, 4, 7, 9, 10, tzinfo=UTC)
        tweets = [tweet(i, t0 + timedelta(minutes=i)) for i in range(3)]
        tweets.append(tweet(9, t0 + timedelta(days=1)))
        result = analysis(tweets, 0)
        assert values(result.volume) == (3, 1)
        assert result.volume_mean == 2.0 and result.volume_stddev == 1.0

    def test_empty_corpus(self):
        result = analysis([])
        assert result.volume == ()
        assert result.volume_mean is None and result.volume_stddev is None
        assert all(series == () for series in result.mentions.values())

    def test_first_out_of_range_tweet_is_the_one_named(self):
        # at +05:30 both the last second of year 9999 and the noon of year 1
        # fall outside the datetime range; every tweet is still counted
        fold = AnalysisFold(default_lexicon())
        for t in (tweet(1, datetime(2014, 4, 7, tzinfo=UTC)),
                  tweet(2, datetime(9999, 12, 31, 23, 59, 59, tzinfo=UTC)),
                  tweet(3, datetime(1, 1, 1, 12, tzinfo=UTC)),
                  tweet(4, datetime(2014, 4, 8, tzinfo=UTC))):
            fold.append(t)
        assert len(fold) == 4
        with pytest.raises(CorpusError, match="^tweet 2 at UTC"):
            fold.result()

    def test_interior_gaps_are_zero_filled(self):
        t0 = datetime(2014, 4, 7, 5, 0, tzinfo=UTC)
        tweets = [tweet(1, t0), tweet(2, t0 + timedelta(days=3))]
        assert values(analysis(tweets, 0).volume) == (1, 0, 0, 1)

    def test_timezone_shifts_day_boundary(self):
        late = tweet(1, datetime(2014, 4, 1, 20, 0, tzinfo=UTC))
        ist = analysis([late], IST_OFFSET_MINUTES)
        utc = analysis([late], 0)
        assert bucket_starts(ist.volume)[0].day == 2
        assert bucket_starts(utc.volume)[0].day == 1

    @pytest.mark.parametrize("granularity", ["day", "week"])
    def test_against_counting_oracle(self, granularity):
        # daily buckets are the volume, weekly ones a party's mentions
        tweets = [
            tweet(t.tweet_id, t.created_at, text="modi")
            for t in random_tweets(400, seed=11)
        ]
        result = analysis(tweets)
        if granularity == "day":
            series, key = result.volume, local_date
        else:
            series, key = result.mentions["BJP"], iso_week
        zone = timezone(timedelta(minutes=IST_OFFSET_MINUTES))
        oracle = Counter(key(t.created_at.astimezone(zone)) for t in tweets)
        for bucket, value in series:
            assert value == oracle.get(key(bucket), 0)
        assert total(series) == 400

    def test_week_buckets_are_iso_mondays(self):
        tweets = [
            tweet(t.tweet_id, t.created_at, text="modi", hashtags=["namo"])
            for t in random_tweets(300, seed=5)
        ]
        result = analysis(tweets)
        weeks = bucket_starts(result.mentions["BJP"])
        assert len(weeks) == 6
        assert all(week.weekday() == 0 for week in weeks)
        assert bucket_starts(result.top_hashtags) == weeks


class TestDayHourMatrix:
    def test_single_tuesday_afternoon_cell(self):
        # 2014-04-08 was a Tuesday; Sunday-first indexing makes it day 3
        result = analysis([tweet(1, datetime(2014, 4, 8, 14, 30, tzinfo=UTC))], 0)
        assert cell(result, 3, 14) == 1
        assert grid_total(result.day_hour) == 1

    def test_uniform_week_is_flat(self):
        start = datetime(2014, 4, 6, 0, 0, tzinfo=UTC)  # a Sunday
        tweets = [
            tweet(i, start + timedelta(hours=i)) for i in range(7 * 24)
        ]
        result = analysis(tweets, 0)
        assert all(count == 1 for row in result.day_hour for count in row)

    def test_against_oracle_and_conservation(self):
        tweets = random_tweets(1000, seed=3)
        result = analysis(tweets)
        assert [len(row) for row in result.day_hour] == [24] * 7
        zone = timezone(timedelta(minutes=IST_OFFSET_MINUTES))
        oracle = Counter()
        for t in tweets:
            local = t.created_at.astimezone(zone)
            # independent day mapping: strftime %w is 0=Sunday..6=Saturday
            oracle[(int(local.strftime("%w")) + 1, local.hour)] += 1
        for day in range(1, 8):
            for hour in range(24):
                assert cell(result, day, hour) == oracle.get((day, hour), 0)
        assert grid_total(result.day_hour) == 1000

    @given(offset=st.integers(-720, 840))
    @settings(max_examples=20, deadline=None)
    def test_conservation_for_any_timezone(self, offset):
        tweets = [tweet(t.tweet_id, t.created_at, text="modi")
                  for t in random_tweets(200, seed=8)]
        result = analysis(tweets, offset)
        assert grid_total(result.day_hour) == 200
        assert total(result.volume) == 200
        assert total(result.mentions["BJP"]) == 200


class TestPartyMentions:
    def test_multi_party_tweet_counts_twice(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC),
                  text="modi and kejriwal debate")
        mentions = analysis([t]).mentions
        assert total(mentions["BJP"]) == 1
        assert total(mentions["AAP"]) == 1
        assert total(mentions["CONG"]) == 0

    def test_no_hit_counts_nowhere(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC), text="weather is nice")
        mentions = analysis([t]).mentions
        assert all(total(s) == 0 for s in mentions.values())

    def test_hashtags_match_party_hashtags(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC),
                  text="big rally #namo", hashtags=["namo"])
        assert total(analysis([t]).mentions["BJP"]) == 1

    def test_against_scan_oracle(self):
        rng = np.random.default_rng(17)
        lexicon = default_lexicon()
        snippets = ["modi speaks", "kejriwal rally", "congress manifesto",
                    "rahul in delhi", "chai and cricket", "namo kejriwal"]
        tweets = [
            tweet(i, datetime(2014, 4, 1, tzinfo=UTC) + timedelta(hours=int(h)),
                  text=snippets[int(rng.integers(len(snippets)))])
            for i, h in enumerate(rng.integers(0, 600, size=1000))
        ]
        mentions = analysis(tweets, lexicon=lexicon).mentions
        for party in ("AAP", "BJP", "CONG"):
            keywords = lexicon.terms(party).keywords
            expected = sum(
                1 for t in tweets
                if any(word in keywords for word in t.text.split())
            )
            assert total(mentions[party]) == expected

    def test_disjoint_single_hit_totals_conserve(self):
        # every tweet names exactly one party, so totals sum to corpus size
        base = datetime(2014, 4, 7, tzinfo=UTC)
        words = {"AAP": "kejriwal", "BJP": "modi", "CONG": "congress"}
        tweets = [
            tweet(i, base + timedelta(days=i % 3),
                  text=f"about {words[party]} today")
            for i, party in enumerate(["AAP", "BJP", "CONG"] * 30)
        ]
        mentions = analysis(tweets).mentions
        assert sum(total(s) for s in mentions.values()) == len(tweets)

    def test_common_span_across_parties(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [
            tweet(1, base, text="modi"),
            tweet(2, base + timedelta(days=30), text="kejriwal"),
        ]
        mentions = analysis(tweets).mentions
        spans = {bucket_starts(s) for s in mentions.values()}
        assert len(spans) == 1  # all parties share one axis


class TestTopHashtags:
    def test_single_hashtag(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC), hashtags=["namo"])
        ((_, ranking),) = analysis([t]).top_hashtags
        assert ranking == (("namo", 1),)

    def test_tie_breaks_alphabetically(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [
            tweet(1, base, hashtags=["zebra"]),
            tweet(2, base, hashtags=["apple"]),
        ]
        ((_, ranking),) = analysis(tweets).top_hashtags
        assert ranking == (("apple", 1), ("zebra", 1))

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(23)
        tags = [f"tag{i}" for i in range(12)]
        tweets = [
            tweet(i, datetime(2014, 4, 1, tzinfo=UTC) + timedelta(hours=int(h)),
                  hashtags=[tags[int(rng.integers(12))]])
            for i, h in enumerate(rng.integers(0, 700, size=300))
        ]
        zone = timezone(timedelta(minutes=IST_OFFSET_MINUTES))
        oracle: dict = {}
        for t in tweets:
            week = iso_week(t.created_at.astimezone(zone))
            oracle.setdefault(week, Counter()).update(t.hashtags)
        ranked = analysis(tweets).top_hashtags
        assert len(ranked) == len(oracle)
        for window, ranking in ranked:
            assert window.weekday() == 0
            counts = oracle[iso_week(window)]
            # five entries, and no tag left out has a higher count than one kept
            assert len(ranking) == 5
            assert [c for _, c in ranking] == sorted(counts.values(), reverse=True)[:5]
            assert all(counts[tag] == count for tag, count in ranking)


class TestUniqueUserStats:
    def test_three_two_split(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [tweet(i, base, author="u1") for i in range(3)]
        tweets += [tweet(i + 3, base, author="u2") for i in range(2)]
        result = analysis(tweets)
        assert result.n_users == 2
        assert result.top_tweeters == (("u1", 3), ("u2", 2))

    def test_rank_ties_alphabetical(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [tweet(1, base, author="zed"), tweet(2, base, author="amy")]
        assert analysis(tweets).top_tweeters == (("amy", 1), ("zed", 1))

    def test_top_n_truncates(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [tweet(i, base, author=f"u{i}") for i in range(9)]
        result = analysis(tweets)
        assert result.n_users == 9
        assert result.top_tweeters == tuple((f"u{i}", 1) for i in range(5))


class TestExports:
    def test_series_csv(self, tmp_path):
        t0 = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [tweet(1, t0), tweet(2, t0), tweet(3, t0 + timedelta(days=2))]
        write_analysis(analysis(tweets, 0), tmp_path)
        lines = (tmp_path / "volume_day.csv").read_text().splitlines()
        assert lines == ["bucket_start,value", "2014-04-07T00:00:00Z,2.0",
                         "2014-04-08T00:00:00Z,0.0", "2014-04-09T00:00:00Z,1.0"]

    def test_day_hour_csv(self, tmp_path):
        t = tweet(1, datetime(2014, 4, 8, 14, 0, tzinfo=UTC))
        write_analysis(analysis([t], 0), tmp_path)
        lines = (tmp_path / "day_hour.csv").read_text().splitlines()
        assert lines[0] == "day,hour,count"
        assert len(lines) == 1 + 7 * 24
        assert "3,14,1" in lines

    def test_top_hashtags_csv(self, tmp_path):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC), hashtags=["namo", "aap"])
        write_analysis(analysis([t]), tmp_path)
        lines = (tmp_path / "top_hashtags.csv").read_text().splitlines()
        assert lines[0] == "window_start,rank,hashtag,count"
        assert len(lines) == 3

    def test_party_mentions_csv_and_summary(self, tmp_path):
        # 2014-04-07 was a Monday; the weeks are written as utc instants
        t0 = datetime(2014, 4, 7, 12, 0, tzinfo=UTC)
        tweets = [tweet(1, t0, author="a", text="modi"),
                  tweet(2, t0 + timedelta(days=7), author="b", text="rahul")]
        write_analysis(analysis(tweets, 0), tmp_path)
        assert read_csv(tmp_path / "party_mentions.csv") == [
            ["party", "bucket_start", "value"],
            ["AAP", "2014-04-07T00:00:00Z", "0.0"],
            ["AAP", "2014-04-14T00:00:00Z", "0.0"],
            ["BJP", "2014-04-07T00:00:00Z", "1.0"],
            ["BJP", "2014-04-14T00:00:00Z", "0.0"],
            ["CONG", "2014-04-07T00:00:00Z", "0.0"],
            ["CONG", "2014-04-14T00:00:00Z", "1.0"],
        ]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {
            "tweets": 2,
            "unique_users": 2,
            "top_tweeters": [["a", 1], ["b", 1]],
            "volume_mean": 0.25,
            "volume_stddev": math.sqrt(0.1875),
            "stddev_kind": "population",
            "tz_offset_minutes": 0,
        }
