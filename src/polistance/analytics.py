"""Corpus-level descriptive statistics, gathered in one pass over the tweets.

Everything here buckets tweets by local wall-clock time after applying a
fixed utc offset, +05:30 by default. Tweet volume is bucketed by day;
party mentions and the top five hashtags by ISO week, which starts on
Monday. Series are gap-free: a bucket with no tweets is present with
value 0, so consecutive bucket starts always differ by exactly one day or
one week. Standard deviations are population standard deviations (divide
by n); exports record that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping

from .corpus import CorpusError, Tweet, canonical_dumps, format_timestamp, tokenize
from .features import PARTIES, PartyLexicon, write_csv

__all__ = [
    "IST_OFFSET_MINUTES",
    "STDDEV_KIND",
    "Analysis",
    "AnalysisFold",
    "write_analysis",
]

IST_OFFSET_MINUTES = 330
STDDEV_KIND = "population"

# how many hashtags each week ranks, and how many tweeters the summary names
_TOP_K = 5

# (bucket start, count) pairs, gap-free and in time order
Series = tuple[tuple[datetime, int], ...]


@dataclass(frozen=True)
class Analysis:
    """The descriptive statistics of one corpus at one utc offset.

    Bucket starts are local midnights carrying the offset. ``day_hour``
    is 7 x 24, Sunday first. Every party's weekly series spans the weeks
    of the first and last local day, so all plot on a common axis.
    ``top_hashtags`` holds only weeks with a hashtag, in time order.
    Rankings are count desc, ties alphabetical.
    """

    tz_offset_minutes: int
    n_tweets: int
    volume: Series
    day_hour: tuple[tuple[int, ...], ...]
    mentions: Mapping[str, Series]
    top_hashtags: tuple[tuple[datetime, tuple[tuple[str, int], ...]], ...]
    n_users: int
    top_tweeters: tuple[tuple[str, int], ...]
    volume_mean: float | None
    volume_stddev: float | None


def _week(day: date) -> date:
    return day - timedelta(days=day.weekday())  # ISO weeks start Monday


def _top(counts: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:_TOP_K])


class AnalysisFold:
    """Volume, day-hour, party mentions, top hashtags and tweeters, taken
    one tweet at a time.

    A sink for ``parse_corpus``: ``append`` folds a tweet in, ``len`` counts
    the tweets seen, and ``result()`` gives their ``Analysis``. A tweet
    counts toward a party when any of its tokens matches the party's
    keywords or any of its hashtags matches the party's hashtags; one tweet
    may count toward several parties. A tweet whose local time, or the start
    of its local day or week, has no utc ``datetime`` at this offset is a
    ``CorpusError``, which ``result()`` raises for the first such tweet. So
    the parse finishes first, and under ``--strict`` a malformed line wins
    over an earlier such tweet.
    """

    def __init__(self, lexicon: PartyLexicon,
                 tz_offset_minutes: int = IST_OFFSET_MINUTES) -> None:
        self._offset = tz_offset_minutes
        self._zone = timezone(timedelta(minutes=tz_offset_minutes))
        self._party_terms = [(party, lexicon.terms(party)) for party in PARTIES]
        self._per_day: dict[date, int] = {}
        self._grid = [[0] * 24 for _ in range(7)]
        self._per_party: dict[str, dict[date, int]] = {party: {} for party in PARTIES}
        self._tags_per_week: dict[date, dict[str, int]] = {}
        self._per_author: dict[str, int] = {}
        self._tweets = 0
        self._out_of_range: str | None = None  # the first such tweet's id

    def _start(self, day: date) -> datetime:
        return datetime(day.year, day.month, day.day, tzinfo=self._zone)

    def append(self, tweet: Tweet) -> None:
        self._tweets += 1
        if self._out_of_range is not None:
            return
        try:
            local = tweet.created_at.astimezone(self._zone)
            day = local.date()
            if day not in self._per_day:
                # the start of a new day's week is the earliest bucket start it adds
                self._start(_week(day)).astimezone(timezone.utc)
        except OverflowError:
            self._out_of_range = tweet.tweet_id
            return
        self._per_day[day] = self._per_day.get(day, 0) + 1
        self._grid[(day.weekday() + 1) % 7][local.hour] += 1  # Monday- to Sunday-based
        name = tweet.author_screen_name
        self._per_author[name] = self._per_author.get(name, 0) + 1
        week = _week(day)
        tokens = set(tokenize(tweet.text))
        tags = set(tweet.hashtags)
        for party, terms in self._party_terms:
            if tokens & terms.keywords or tags & terms.hashtags:
                counts = self._per_party[party]
                counts[week] = counts.get(week, 0) + 1
        if tweet.hashtags:
            counts = self._tags_per_week.setdefault(week, {})
            for tag in tweet.hashtags:
                counts[tag] = counts.get(tag, 0) + 1

    def __len__(self) -> int:
        return self._tweets

    def result(self) -> Analysis:
        if self._out_of_range is not None:
            raise CorpusError(
                f"tweet {self._out_of_range} at {self._zone}: its local time or the "
                "start of its local day or week is outside the datetime range")
        per_day, start = self._per_day, self._start

        def filled(counts: Mapping[date, int], lo: date, hi: date, step: int) -> Series:
            days = (lo + timedelta(days=k) for k in range(0, (hi - lo).days + 1, step))
            return tuple((start(day), counts.get(day, 0)) for day in days)

        volume: Series = ()
        mentions: dict[str, Series] = dict.fromkeys(PARTIES, ())
        mean = stddev = None
        if per_day:
            first, last = min(per_day), max(per_day)
            volume = filled(per_day, first, last, 1)
            mentions = {party: filled(counts, _week(first), _week(last), 7)
                        for party, counts in self._per_party.items()}
            values = [value for _, value in volume]
            mean = math.fsum(values) / len(values)
            stddev = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        return Analysis(
            tz_offset_minutes=self._offset,
            n_tweets=sum(per_day.values()),
            volume=volume,
            day_hour=tuple(tuple(row) for row in self._grid),
            mentions=mentions,
            top_hashtags=tuple((start(week), _top(self._tags_per_week[week]))
                               for week in sorted(self._tags_per_week)),
            n_users=len(self._per_author),
            top_tweeters=_top(self._per_author),
            volume_mean=mean,
            volume_stddev=stddev,
        )


def _utc_stamp(bucket: datetime) -> str:
    return format_timestamp(bucket.astimezone(timezone.utc))


def write_analysis(result: Analysis, out_dir: str | Path) -> None:
    """Write the five analysis files into ``out_dir``, which must exist.

    Bucket starts are written as RFC 3339 utc; volume and mention counts
    as floats, as the files have always held them.
    """
    out = Path(out_dir)
    write_csv(out / "volume_day.csv", ["bucket_start", "value"],
              ([_utc_stamp(bucket), repr(float(value))] for bucket, value in result.volume))
    write_csv(out / "day_hour.csv", ["day", "hour", "count"],
              ([day, hour, count]
               for day, row in enumerate(result.day_hour, start=1)
               for hour, count in enumerate(row)))
    write_csv(out / "top_hashtags.csv", ["window_start", "rank", "hashtag", "count"],
              ([_utc_stamp(bucket), rank, tag, count]
               for bucket, ranking in result.top_hashtags
               for rank, (tag, count) in enumerate(ranking, start=1)))
    write_csv(out / "party_mentions.csv", ["party", "bucket_start", "value"],
              ([party, _utc_stamp(bucket), float(value)]
               for party in sorted(result.mentions)
               for bucket, value in result.mentions[party]))
    summary = {
        "tweets": result.n_tweets,
        "unique_users": result.n_users,
        "top_tweeters": [[name, count] for name, count in result.top_tweeters],
        "volume_mean": result.volume_mean,
        "volume_stddev": result.volume_stddev,
        "stddev_kind": STDDEV_KIND,
        "tz_offset_minutes": result.tz_offset_minutes,
    }
    (out / "summary.json").write_text(canonical_dumps(summary) + "\n", encoding="utf-8")
