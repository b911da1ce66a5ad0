"""Tests for time bucketing, mention bucketing, and the CSV exports."""

import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polistance.analytics import (
    AnalyticsError,
    DayHourMatrix,
    IST_OFFSET_MINUTES,
    TimeSeries,
    day_hour_matrix,
    party_mentions,
    top_hashtags,
    unique_user_stats,
    volume_series,
    write_day_hour,
    write_series,
    write_top_hashtags,
)
from polistance.corpus import Tweet
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


def total(series):
    return math.fsum(series.values)


def bucket_starts(series):
    return tuple(t for t, _ in series.points)


def grid_total(matrix):
    return sum(sum(row) for row in matrix.counts)


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


class TestTimeSeries:
    def test_mean_and_population_stddev(self):
        t0 = datetime(2014, 4, 7, tzinfo=UTC)
        series = TimeSeries("day", 0, ((t0, 3.0), (t0 + timedelta(days=1), 1.0)))
        assert series.mean() == 2.0
        assert series.stddev() == 1.0  # population: sqrt((1+1)/2)

    def test_gap_detection(self):
        t0 = datetime(2014, 4, 7, tzinfo=UTC)
        with pytest.raises(AnalyticsError, match="gap-free"):
            TimeSeries("day", 0, ((t0, 1.0), (t0 + timedelta(days=2), 1.0)))
        with pytest.raises(AnalyticsError, match="gap-free"):
            TimeSeries("week", 0, ((t0, 1.0), (t0 + timedelta(days=8), 1.0)))

    def test_empty_series_statistics_error(self):
        series = TimeSeries("day", 0, ())
        with pytest.raises(AnalyticsError):
            series.mean()
        with pytest.raises(AnalyticsError):
            series.stddev()


class TestVolumeSeries:
    def test_two_day_example(self):
        t0 = datetime(2014, 4, 7, 9, 10, tzinfo=UTC)
        tweets = [tweet(i, t0 + timedelta(minutes=i)) for i in range(3)]
        tweets.append(tweet(9, t0 + timedelta(days=1)))
        series = volume_series(tweets, tz_offset_minutes=0)
        assert series.granularity == "day"
        assert series.values == (3.0, 1.0)
        assert series.mean() == 2.0 and series.stddev() == 1.0

    def test_empty_corpus(self):
        series = volume_series([])
        assert len(series) == 0

    def test_interior_gaps_are_zero_filled(self):
        t0 = datetime(2014, 4, 7, 5, 0, tzinfo=UTC)
        tweets = [tweet(1, t0), tweet(2, t0 + timedelta(days=3))]
        series = volume_series(tweets, tz_offset_minutes=0)
        assert series.values == (1.0, 0.0, 0.0, 1.0)

    def test_timezone_shifts_day_boundary(self):
        late = tweet(1, datetime(2014, 4, 1, 20, 0, tzinfo=UTC))
        ist = volume_series([late], tz_offset_minutes=IST_OFFSET_MINUTES)
        utc = volume_series([late], tz_offset_minutes=0)
        assert bucket_starts(ist)[0].day == 2
        assert bucket_starts(utc)[0].day == 1

    @pytest.mark.parametrize("granularity", ["day", "week"])
    def test_against_counting_oracle(self, granularity):
        # daily series come from volume_series, weekly ones from party_mentions
        tweets = [
            tweet(t.tweet_id, t.created_at, text="modi")
            for t in random_tweets(400, seed=11)
        ]
        if granularity == "day":
            series, key = volume_series(tweets), local_date
        else:
            series, key = party_mentions(tweets, default_lexicon())["BJP"], iso_week
        assert series.granularity == granularity
        zone = timezone(timedelta(minutes=IST_OFFSET_MINUTES))
        oracle = Counter(key(t.created_at.astimezone(zone)) for t in tweets)
        for bucket, value in series.points:
            assert value == oracle.get(key(bucket), 0)
        assert total(series) == 400

    def test_week_buckets_are_iso_mondays(self):
        tweets = [
            tweet(t.tweet_id, t.created_at, text="modi", hashtags=["namo"])
            for t in random_tweets(300, seed=5)
        ]
        weeks = bucket_starts(party_mentions(tweets, default_lexicon())["BJP"])
        assert len(weeks) == 6
        assert all(week.weekday() == 0 for week in weeks)
        assert tuple(top_hashtags(tweets)) == weeks

    def test_unknown_granularity(self):
        # a series is bucketed by day or by week, nothing else
        with pytest.raises(AnalyticsError, match="unknown granularity"):
            TimeSeries("hour", 0, ())


class TestDayHourMatrix:
    def test_single_tuesday_afternoon_cell(self):
        # 2014-04-08 was a Tuesday; Sunday-first indexing makes it day 3
        m = day_hour_matrix(
            [tweet(1, datetime(2014, 4, 8, 14, 30, tzinfo=UTC))],
            tz_offset_minutes=0,
        )
        assert m.at(3, 14) == 1
        assert grid_total(m) == 1

    def test_uniform_week_is_flat(self):
        start = datetime(2014, 4, 6, 0, 0, tzinfo=UTC)  # a Sunday
        tweets = [
            tweet(i, start + timedelta(hours=i)) for i in range(7 * 24)
        ]
        m = day_hour_matrix(tweets, tz_offset_minutes=0)
        assert all(cell == 1 for row in m.counts for cell in row)

    def test_against_oracle_and_conservation(self):
        tweets = random_tweets(1000, seed=3)
        m = day_hour_matrix(tweets)
        zone = timezone(timedelta(minutes=IST_OFFSET_MINUTES))
        oracle = Counter()
        for t in tweets:
            local = t.created_at.astimezone(zone)
            # independent day mapping: strftime %w is 0=Sunday..6=Saturday
            oracle[(int(local.strftime("%w")) + 1, local.hour)] += 1
        for day in range(1, 8):
            for hour in range(24):
                assert m.at(day, hour) == oracle.get((day, hour), 0)
        assert grid_total(m) == 1000

    @given(offset=st.integers(-720, 840))
    @settings(max_examples=20, deadline=None)
    def test_conservation_for_any_timezone(self, offset):
        tweets = random_tweets(200, seed=8)
        assert grid_total(day_hour_matrix(tweets, offset)) == 200
        assert total(volume_series(tweets, offset)) == 200
        modi = [tweet(t.tweet_id, t.created_at, text="modi") for t in tweets]
        weekly = party_mentions(modi, default_lexicon(), offset)["BJP"]
        assert total(weekly) == 200

    def test_shape_validation(self):
        with pytest.raises(AnalyticsError):
            DayHourMatrix(counts=((0,) * 24,) * 6, tz_offset_minutes=0)
        m = day_hour_matrix([], tz_offset_minutes=0)
        with pytest.raises(AnalyticsError):
            m.at(0, 5)
        with pytest.raises(AnalyticsError):
            m.at(1, 24)


class TestPartyMentions:
    def test_multi_party_tweet_counts_twice(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC),
                  text="modi and kejriwal debate")
        series = party_mentions([t], default_lexicon())
        assert total(series["BJP"]) == 1
        assert total(series["AAP"]) == 1
        assert total(series["CONG"]) == 0

    def test_no_hit_counts_nowhere(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC), text="weather is nice")
        series = party_mentions([t], default_lexicon())
        assert all(total(s) == 0 for s in series.values())

    def test_hashtags_match_party_hashtags(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC),
                  text="big rally #namo", hashtags=["namo"])
        series = party_mentions([t], default_lexicon())
        assert total(series["BJP"]) == 1

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
        series = party_mentions(tweets, lexicon)
        for party in ("AAP", "BJP", "CONG"):
            keywords = lexicon.terms(party).keywords
            expected = sum(
                1 for t in tweets
                if any(word in keywords for word in t.text.split())
            )
            assert total(series[party]) == expected

    def test_disjoint_single_hit_totals_conserve(self):
        # every tweet names exactly one party, so totals sum to corpus size
        base = datetime(2014, 4, 7, tzinfo=UTC)
        words = {"AAP": "kejriwal", "BJP": "modi", "CONG": "congress"}
        tweets = [
            tweet(i, base + timedelta(days=i % 3),
                  text=f"about {words[party]} today")
            for i, party in enumerate(["AAP", "BJP", "CONG"] * 30)
        ]
        series = party_mentions(tweets, default_lexicon())
        assert sum(total(s) for s in series.values()) == len(tweets)

    def test_common_span_across_parties(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [
            tweet(1, base, text="modi"),
            tweet(2, base + timedelta(days=30), text="kejriwal"),
        ]
        series = party_mentions(tweets, default_lexicon())
        spans = {bucket_starts(s) for s in series.values()}
        assert len(spans) == 1  # all parties share one axis


class TestTopHashtags:
    def test_single_hashtag(self):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC), hashtags=["namo"])
        ranked = top_hashtags([t])
        (window,) = ranked
        assert ranked[window] == (("namo", 1),)

    def test_tie_breaks_alphabetically(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [
            tweet(1, base, hashtags=["zebra"]),
            tweet(2, base, hashtags=["apple"]),
        ]
        (ranking,) = top_hashtags(tweets).values()
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
        ranked = top_hashtags(tweets)
        assert len(ranked) == len(oracle)
        for window, ranking in ranked.items():
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
        count, ranking = unique_user_stats(tweets)
        assert count == 2
        assert ranking == (("u1", 3), ("u2", 2))

    def test_rank_ties_alphabetical(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [tweet(1, base, author="zed"), tweet(2, base, author="amy")]
        _, ranking = unique_user_stats(tweets)
        assert ranking == (("amy", 1), ("zed", 1))

    def test_top_n_truncates(self):
        base = datetime(2014, 4, 7, tzinfo=UTC)
        tweets = [tweet(i, base, author=f"u{i}") for i in range(9)]
        count, ranking = unique_user_stats(tweets)
        assert count == 9
        assert ranking == tuple((f"u{i}", 1) for i in range(5))


class TestExports:
    def test_series_csv(self, tmp_path):
        t0 = datetime(2014, 4, 7, tzinfo=UTC)
        series = TimeSeries("day", 0, ((t0, 2.0), (t0 + timedelta(days=1), 0.0)))
        path = tmp_path / "series.csv"
        write_series(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bucket_start,value"
        assert lines[1] == "2014-04-07T00:00:00Z,2.0"
        assert len(lines) == 3

    def test_day_hour_csv(self, tmp_path):
        m = day_hour_matrix(
            [tweet(1, datetime(2014, 4, 8, 14, 0, tzinfo=UTC))],
            tz_offset_minutes=0,
        )
        path = tmp_path / "grid.csv"
        write_day_hour(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "day,hour,count"
        assert len(lines) == 1 + 7 * 24
        assert "3,14,1" in lines

    def test_top_hashtags_csv(self, tmp_path):
        t = tweet(1, datetime(2014, 4, 7, tzinfo=UTC), hashtags=["namo", "aap"])
        path = tmp_path / "tags.csv"
        write_top_hashtags(top_hashtags([t]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_start,rank,hashtag,count"
        assert len(lines) == 3
