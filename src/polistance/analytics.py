"""Corpus-level descriptive statistics over tweet streams.

Everything here buckets tweets by local wall-clock time after applying a
fixed utc offset, +05:30 by default. Tweet volume is bucketed by day;
party mentions and the top five hashtags by ISO week, which starts on
Monday. Series are gap-free: a bucket with no tweets is present with
value 0, so consecutive bucket starts always differ by exactly one day or
one week. Standard deviations are population standard deviations (divide
by n); exports record that choice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import Tweet, format_timestamp, tokenize
from .features import PARTIES, PartyLexicon

__all__ = [
    "IST_OFFSET_MINUTES",
    "STDDEV_KIND",
    "AnalyticsError",
    "DayHourMatrix",
    "TimeSeries",
    "day_hour_matrix",
    "party_mentions",
    "top_hashtags",
    "unique_user_stats",
    "volume_series",
    "write_day_hour",
    "write_series",
    "write_top_hashtags",
]

IST_OFFSET_MINUTES = 330
STDDEV_KIND = "population"

# the width of each granularity a series can have
_BUCKET_WIDTHS = {"day": timedelta(days=1), "week": timedelta(days=7)}
# how many hashtags each week ranks, and how many tweeters the summary names
_TOP_K = 5


class AnalyticsError(ValueError):
    """Raised for invalid analytics inputs."""


def _local_zone(tz_offset_minutes: int) -> timezone:
    return timezone(timedelta(minutes=tz_offset_minutes))


def _floor_bucket(moment: datetime, granularity: str) -> datetime:
    day = moment.replace(hour=0, minute=0, second=0, microsecond=0)
    if granularity == "week":
        return day - timedelta(days=day.weekday())  # ISO weeks start Monday
    return day


@dataclass(frozen=True)
class TimeSeries:
    """Gap-free bucketed values; bucket starts carry the local offset."""

    granularity: str
    tz_offset_minutes: int
    points: tuple[tuple[datetime, float], ...]

    def __post_init__(self) -> None:
        width = _BUCKET_WIDTHS.get(self.granularity)
        if width is None:
            raise AnalyticsError(f"unknown granularity {self.granularity!r}")
        for (a, _), (b, _) in zip(self.points, self.points[1:]):
            if b - a != width:
                raise AnalyticsError(
                    f"buckets not gap-free at {a.isoformat()} -> {b.isoformat()}"
                )

    def __len__(self) -> int:
        return len(self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)

    def mean(self) -> float:
        if not self.points:
            raise AnalyticsError("mean of an empty series")
        return math.fsum(self.values) / len(self.points)

    def stddev(self) -> float:
        """Population standard deviation over the buckets."""
        if not self.points:
            raise AnalyticsError("stddev of an empty series")
        center = self.mean()
        return math.sqrt(
            math.fsum((v - center) ** 2 for v in self.values) / len(self.points)
        )


def _filled_series(
    counts: Mapping[datetime, int],
    granularity: str,
    tz_offset_minutes: int,
    span: tuple[datetime, datetime] | None = None,
) -> TimeSeries:
    if not counts and span is None:
        return TimeSeries(granularity, tz_offset_minutes, ())
    lo, hi = span if span is not None else (min(counts), max(counts))
    width = _BUCKET_WIDTHS[granularity]
    points = []
    bucket = lo
    while bucket <= hi:
        points.append((bucket, float(counts.get(bucket, 0))))
        bucket += width
    return TimeSeries(granularity, tz_offset_minutes, tuple(points))


def volume_series(
    tweets: Sequence[Tweet],
    tz_offset_minutes: int = IST_OFFSET_MINUTES,
) -> TimeSeries:
    """Tweet counts per local day, zero-filled between first and last day."""
    zone = _local_zone(tz_offset_minutes)
    counts: dict[datetime, int] = {}
    for tweet in tweets:
        day = _floor_bucket(tweet.created_at.astimezone(zone), "day")
        counts[day] = counts.get(day, 0) + 1
    return _filled_series(counts, "day", tz_offset_minutes)


@dataclass(frozen=True)
class DayHourMatrix:
    """Tweet counts by (day of week, hour of day); day 1 is Sunday."""

    counts: tuple[tuple[int, ...], ...]
    tz_offset_minutes: int

    def __post_init__(self) -> None:
        if len(self.counts) != 7 or any(len(row) != 24 for row in self.counts):
            raise AnalyticsError("day-hour matrix must be 7 x 24")

    def at(self, day: int, hour: int) -> int:
        if not 1 <= day <= 7:
            raise AnalyticsError(f"day must be 1..7, got {day}")
        if not 0 <= hour <= 23:
            raise AnalyticsError(f"hour must be 0..23, got {hour}")
        return self.counts[day - 1][hour]


def day_hour_matrix(
    tweets: Sequence[Tweet],
    tz_offset_minutes: int = IST_OFFSET_MINUTES,
) -> DayHourMatrix:
    """7x24 histogram of local posting times, Sunday-first."""
    zone = _local_zone(tz_offset_minutes)
    grid = [[0] * 24 for _ in range(7)]
    for tweet in tweets:
        local = tweet.created_at.astimezone(zone)
        day = (local.weekday() + 1) % 7  # Monday-based 0..6 -> Sunday-based
        grid[day][local.hour] += 1
    return DayHourMatrix(
        counts=tuple(tuple(row) for row in grid),
        tz_offset_minutes=tz_offset_minutes,
    )


def party_mentions(
    tweets: Sequence[Tweet],
    lexicon: PartyLexicon,
    tz_offset_minutes: int = IST_OFFSET_MINUTES,
) -> dict[str, TimeSeries]:
    """Per-party tweet counts per local ISO week.

    A tweet counts toward a party when any of its tokens matches the
    party's keywords or any of its hashtags matches the party's hashtags;
    one tweet may count toward several parties. All returned series share
    the full corpus span so they plot on a common axis.
    """
    zone = _local_zone(tz_offset_minutes)
    per_party: dict[str, dict[datetime, int]] = {p: {} for p in PARTIES}
    span_lo: datetime | None = None
    span_hi: datetime | None = None
    for tweet in tweets:
        bucket = _floor_bucket(tweet.created_at.astimezone(zone), "week")
        if span_lo is None or bucket < span_lo:
            span_lo = bucket
        if span_hi is None or bucket > span_hi:
            span_hi = bucket
        tokens = set(tokenize(tweet.text))
        tags = set(tweet.hashtags)
        for party in PARTIES:
            terms = lexicon.terms(party)
            if tokens & terms.keywords or tags & terms.hashtags:
                counts = per_party[party]
                counts[bucket] = counts.get(bucket, 0) + 1
    span = None if span_lo is None else (span_lo, span_hi)
    return {
        party: _filled_series(per_party[party], "week", tz_offset_minutes, span)
        for party in PARTIES
    }


def top_hashtags(
    tweets: Sequence[Tweet],
    tz_offset_minutes: int = IST_OFFSET_MINUTES,
) -> dict[datetime, tuple[tuple[str, int], ...]]:
    """The five most frequent hashtags of each local ISO week.

    Ranking is count desc, ties alphabetical.
    """
    zone = _local_zone(tz_offset_minutes)
    per_window: dict[datetime, dict[str, int]] = {}
    for tweet in tweets:
        if not tweet.hashtags:
            continue
        bucket = _floor_bucket(tweet.created_at.astimezone(zone), "week")
        counts = per_window.setdefault(bucket, {})
        for tag in tweet.hashtags:
            counts[tag] = counts.get(tag, 0) + 1
    out: dict[datetime, tuple[tuple[str, int], ...]] = {}
    for bucket in sorted(per_window):
        ranked = sorted(per_window[bucket].items(),
                        key=lambda item: (-item[1], item[0]))
        out[bucket] = tuple(ranked[:_TOP_K])
    return out


def unique_user_stats(
    tweets: Sequence[Tweet],
) -> tuple[int, tuple[tuple[str, int], ...]]:
    """Distinct author count and the five heaviest tweeters.

    Ranking is tweet count desc, ties alphabetical.
    """
    counts: dict[str, int] = {}
    for tweet in tweets:
        name = tweet.author_screen_name
        counts[name] = counts.get(name, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return len(counts), tuple(ranked[:_TOP_K])


def _utc_stamp(bucket: datetime) -> str:
    return format_timestamp(bucket.astimezone(timezone.utc))


def write_series(series: TimeSeries, path: str | Path) -> None:
    """CSV with bucket_start (RFC 3339, utc) and value columns."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bucket_start", "value"])
        for bucket, value in series.points:
            writer.writerow([_utc_stamp(bucket), repr(value)])


def write_day_hour(matrix: DayHourMatrix, path: str | Path) -> None:
    """Tidy CSV: one (day, hour, count) row per cell, day 1 = Sunday."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["day", "hour", "count"])
        for day in range(1, 8):
            for hour in range(24):
                writer.writerow([day, hour, matrix.at(day, hour)])


def write_top_hashtags(
    ranked: Mapping[datetime, tuple[tuple[str, int], ...]],
    path: str | Path,
) -> None:
    """CSV of per-window hashtag rankings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window_start", "rank", "hashtag", "count"])
        for bucket in sorted(ranked):
            for rank, (tag, count) in enumerate(ranked[bucket], start=1):
                writer.writerow([_utc_stamp(bucket), rank, tag, count])
