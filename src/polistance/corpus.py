"""Corpus ingestion and text normalization.

A corpus is a JSON Lines file mixing two record kinds, distinguished by a
``kind`` field:

* ``tweet``: id, author, RFC 3339 ``created_at``, text, optional hashtag and
  mention lists, optional ``retweet_of`` screen name, optional ``geo``.
* ``profile``: user id, screen name, follower/friend/status counts, optional
  ``following`` list of screen names, optional ``location``.

All screen names, hashtags, and mentions are lowercased at ingestion; stored
hashtags carry no leading ``#`` and mentions no ``@``. A name or entity that
is empty or contains whitespace makes its record malformed, because the
line-based artifacts hold one name per whitespace-separated field. A
string holding a lone UTF-16 surrogate, which only a JSON escape can
produce, makes its record malformed too: no UTF-8 artifact can hold it.
Timestamps are normalized to UTC with second precision. ``write_corpus``
emits a canonical byte form (sorted keys, compact separators, ``Z``-suffixed
timestamps) so that writing a parsed corpus and re-parsing it is lossless.

``parse_corpus`` streams the file line by line and interns every screen
name, hashtag and mention, so repeated names share one string object.
It hands each valid tweet, in file order, to a sink: by default a list,
or any object with ``append`` and ``__len__`` that the caller passes, such
as a method's fold in ``pipeline.FOLDS`` or ``analytics.AnalysisFold``,
each of which keeps only the counts it needs. So no run holds every
tweet at once; what it keeps per tweet is ``_TweetIds``, the duplicate
check's ledger of tweet ids.
A sink that also offers ``mark``, ``take`` and ``merge``, as only
``graph.InteractionFold`` does, takes a corpus of ``_PARALLEL_BYTES`` or
more from forked workers when ``workers.worker_count`` finds forking safe
and more than one CPU. The file is cut at newlines into byte ranges; each
worker, pinned to a CPU of its own, parses the next range that no worker
has taken with the serial parse's loop (``_parse_lines``) and hands back
what its sink took, with each tweet's id key, line and pair end, as raw
buffers. The parent merges the ranges in file order and drops a record
whose tweet id or screen name an earlier range holds, so the sink, the
profiles, the skip count and every strict error are the serial parse's.
Lists and every other sink are parsed serially.
Each field first tries its common shape: a line that is exactly one JSON
value, a non-empty string id, a ``YYYY-MM-DDTHH:MM:SSZ`` timestamp, a
name spelling that the same field accepted on an earlier line. Any other
value goes to the field's checking helper (``_as_id``, ``parse_rfc3339``,
``_as_name``, ...), which accepts it or rejects the record, so every
rejection and its message come from the one helper.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sys
import unicodedata
from array import array
from bisect import bisect_left
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from multiprocessing import connection
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .workers import worker_count

__all__ = [
    "CorpusError",
    "DEFAULT_STOPWORDS",
    "STRICTNESS",
    "Tweet",
    "UserProfile",
    "canonical_dumps",
    "extract_entities",
    "format_timestamp",
    "parse_corpus",
    "parse_rfc3339",
    "tokenize",
    "write_corpus",
]

# Tokens dropped everywhere: the retweet marker, the HTML ampersand residue,
# and the three highest-frequency Hindi particles seen in election tweets.
DEFAULT_STOPWORDS = frozenset({"rt", "amp", "ka", "ke", "ki"})

# how parse_corpus treats a malformed line: count it as skipped, or raise
STRICTNESS = ("skip-malformed", "strict")

_HASHTAG_RE = re.compile(r"#(\w+)")
_MENTION_RE = re.compile(r"@(\w+)")
_URL_PREFIXES = ("http", "www.")
# the marker an explicit entity list may put before each entry
_MARKERS = {"hashtags": "#", "mentions": "@"}

_fromisoformat = datetime.fromisoformat
_scan_once = json.JSONDecoder().scan_once


class CorpusError(ValueError):
    """Raised for unreadable or inconsistent corpus data."""


class _Malformed(Exception):
    """Internal: one record failed validation (message says why)."""


@dataclass(frozen=True, slots=True)
class Tweet:
    """One tweet, normalized. ``retweet_of`` is never the author herself."""

    tweet_id: str
    author_id: str
    author_screen_name: str
    created_at: datetime
    text: str
    hashtags: tuple[str, ...] = ()
    mentions: tuple[str, ...] = ()
    retweet_of: str | None = None
    geo: tuple[float, float] | None = None


@dataclass(frozen=True, slots=True)
class UserProfile:
    """One user profile; ``following`` holds lowercased screen names."""

    user_id: str
    screen_name: str
    followers_count: int
    friends_count: int
    statuses_count: int
    following: frozenset[str] = frozenset()
    location: str | None = None


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into UTC at second precision.

    Accepts a trailing ``Z`` or a numeric offset; naive timestamps are
    rejected.
    """
    if not isinstance(value, str):
        raise ValueError(f"timestamp must be a string, got {type(value).__name__}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"unparseable timestamp {value!r}") from None
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no UTC offset")
    try:
        return parsed.astimezone(timezone.utc).replace(microsecond=0)
    except OverflowError:  # the UTC instant falls outside datetime's years
        raise ValueError(f"timestamp {value!r} is out of range") from None


def format_timestamp(dt: datetime) -> str:
    """Render a UTC timestamp as ``YYYY-MM-DDTHH:MM:SSZ``.

    Every field is zero-padded, the year to four digits, as ``isoformat``
    writes them; ``strftime("%Y")`` does not pad a year below 1000 on
    glibc, and ``parse_rfc3339`` rejects an unpadded year.
    """
    if dt.tzinfo is None:
        raise ValueError("naive datetime cannot be formatted as RFC 3339")
    if dt.tzinfo is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    # "YYYY-MM-DDTHH:MM:SS+00:00" without its offset
    return dt.isoformat(timespec="seconds")[:19] + "Z"


def extract_entities(text: str) -> tuple[list[str], list[str]]:
    """Pull (hashtags, mentions) out of raw tweet text.

    Entities are lowercased, markers stripped, order of first appearance
    kept, duplicates dropped.
    """
    hashtags = list(dict.fromkeys(m.lower() for m in _HASHTAG_RE.findall(text)))
    mentions = list(dict.fromkeys(m.lower() for m in _MENTION_RE.findall(text)))
    return hashtags, mentions


def _is_word_char(ch: str) -> bool:
    """True for alphanumerics and combining marks.

    Combining marks (category M*) count as word characters so that scripts
    like Devanagari, whose vowel signs are combining marks, do not lose
    letters to punctuation trimming.
    """
    return ch.isalnum() or unicodedata.category(ch).startswith("M")


def _trim_affixes(token: str) -> str:
    """Strip non-word characters from both ends of a token."""
    start, end = 0, len(token)
    while start < end and not _is_word_char(token[start]):
        start += 1
    while end > start and not _is_word_char(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Split tweet text into lowercase word tokens.

    Tokens are whitespace-separated. Hashtags, mentions, and URL-like tokens
    (prefix ``http`` or ``www.``) are dropped whole; remaining tokens are
    stripped of leading/trailing punctuation, and empty results and words in
    ``DEFAULT_STOPWORDS`` are dropped. Unicode word characters survive, so
    Devanagari text tokenizes like Latin text.
    """
    tokens = []
    for raw in text.split():
        low = raw.lower()
        if low[0] in "#@" or low.startswith(_URL_PREFIXES):
            continue
        word = _trim_affixes(low)
        if not word or word in DEFAULT_STOPWORDS or word.startswith(_URL_PREFIXES):
            continue
        tokens.append(word)
    return tokens


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _Malformed(message)


def _as_id(obj: dict, key: str) -> str:
    value = obj.get(key)
    if isinstance(value, int) and not isinstance(value, bool):
        value = str(value)
    _require(isinstance(value, str) and value != "", f"missing or empty {key!r}")
    return value


def _word(value: str, field: str) -> str:
    """Intern a normalized name or entity; empty or spaced ones are malformed."""
    if value.split() != [value]:
        raise _Malformed(f"bad name in {field!r}: {value!r}")
    return sys.intern(value)


def _as_name(value: object, key: str) -> str:
    _require(isinstance(value, str), f"missing {key!r}")
    return _word(value.lower(), key)


def _bad_count(key: str) -> NoReturn:
    """Reject a count that is not a non-negative JSON integer; the caller
    has checked it (JSON gives no int subclass but ``bool``)."""
    raise _Malformed(f"{key!r} must be a non-negative integer")


def _as_timestamp(value: object) -> datetime:
    """``parse_rfc3339(value)``, its ``ValueError`` made a malformed record.

    The common ``YYYY-MM-DDTHH:MM:SSZ`` form skips parse_rfc3339's strip,
    conversion and truncation: it hands ``fromisoformat`` the very string
    parse_rfc3339 would, and a result already on ``timezone.utc`` at a
    whole second is what parse_rfc3339 would return. Anything else, such
    as a fractional or basic form that ``fromisoformat`` also reads,
    goes through parse_rfc3339.
    """
    if type(value) is str and len(value) == 20 and value[19] == "Z" and not value[0].isspace():
        try:
            parsed = _fromisoformat(value[:19] + "+00:00")
        except ValueError:
            pass
        else:
            if parsed.tzinfo is timezone.utc and not parsed.microsecond:
                return parsed
    try:
        return parse_rfc3339(value)
    except ValueError as exc:
        raise _Malformed(str(exc)) from None


def _entity(item: object, key: str) -> str:
    _require(isinstance(item, str), f"{key!r} entries must be strings")
    entity = item.lower()
    marker = _MARKERS[key]
    if entity.startswith(marker):
        entity = entity[len(marker):]
    _require("#" not in entity and "@" not in entity, f"bad entry in {key!r}: {item!r}")
    return _word(entity, key)


def _entity_list(obj: dict, key: str, names: dict[str, str]) -> tuple[str, ...] | None:
    """Normalize an explicit hashtag/mention list; None when absent."""
    values = obj.get(key)
    if type(values) is not list:
        if key not in obj:
            return None
        raise _Malformed(f"{key!r} must be a list")
    out: dict[str, None] = {}
    for item in values:
        out[_cached(names, item, _entity, key)] = None
    return tuple(out)


def _followed_name(name: object, key: str) -> str:
    _require(isinstance(name, str), "'following' entries must be names")
    return _word(name.lower().lstrip("@"), key)


def _retweeted_name(name: object, key: str) -> str:
    _require(isinstance(name, str), "bad 'retweet_of'")
    return _word(name.lower().lstrip("@"), key)


def _cached(names: dict[str, str], raw: object, normalize, key: str) -> str:
    """``normalize(raw, key)``, remembered in ``names`` once it is accepted."""
    name = names.get(raw) if type(raw) is str else None
    if name is None:
        name = names[raw] = normalize(raw, key)
    return name


class _Names:
    """Each name field's accepted raw spellings, mapped to their interned names.

    One per ``parse_corpus`` call. Fields never share a map: ``"#Modi"`` is
    ``#modi`` as an author, ``modi`` as a hashtag and malformed as a
    mention. ``authors`` serves tweet authors and profile screen names,
    which normalize alike. A rejected spelling is never stored, so it fails
    its checks again wherever it recurs.
    """

    __slots__ = ("authors", "hashtags", "mentions", "retweets", "following")

    def __init__(self) -> None:
        self.authors: dict[str, str] = {}
        self.hashtags: dict[str, str] = {}
        self.mentions: dict[str, str] = {}
        self.retweets: dict[str, str] = {}
        self.following: dict[str, str] = {}


def _parse_tweet(obj: dict, names: _Names) -> Tweet:
    # each field tries its common shape first and otherwise calls the
    # checking helper, which accepts it or raises the record's message;
    # fields are checked in a fixed order, so the first bad one names it
    tweet_id = obj.get("tweet_id")
    if type(tweet_id) is not str or not tweet_id:
        tweet_id = _as_id(obj, "tweet_id")
    author_id = obj.get("author_id")
    if type(author_id) is not str or not author_id:
        author_id = _as_id(obj, "author_id")
    author = _cached(names.authors, obj.get("author_screen_name"), _as_name,
                     "author_screen_name")
    created_at = _as_timestamp(obj.get("created_at"))
    text = obj.get("text")
    if type(text) is not str:
        raise _Malformed("missing 'text'")

    hashtags = _entity_list(obj, "hashtags", names.hashtags)
    mentions = _entity_list(obj, "mentions", names.mentions)
    if hashtags is None or mentions is None:
        found_tags, found_mentions = extract_entities(text)
        if hashtags is None:
            hashtags = tuple(map(sys.intern, found_tags))
        if mentions is None:
            mentions = tuple(map(sys.intern, found_mentions))

    retweet_of = obj.get("retweet_of")
    if retweet_of is not None:
        name = _cached(names.retweets, retweet_of, _retweeted_name, "retweet_of")
        retweet_of = None if name == author else name  # self-retweets carry no relation

    geo = obj.get("geo")
    if geo is not None:
        _require(isinstance(geo, dict) and set(geo) == {"lat", "lon"}, "bad 'geo'")
        lat, lon = geo["lat"], geo["lon"]
        _require(
            all(isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in (lat, lon)),
            "geo coordinates must be numbers",
        )
        _require(-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0, "geo out of range")
        geo = (float(lat), float(lon))

    # positional: a frozen dataclass takes keywords about 30% slower
    return Tweet(tweet_id, sys.intern(author_id), author, created_at, text,
                 hashtags, mentions, retweet_of, geo)


def _parse_profile(obj: dict, names: _Names) -> UserProfile:
    user_id = obj.get("user_id")
    if type(user_id) is not str or not user_id:
        user_id = _as_id(obj, "user_id")
    screen_name = _cached(names.authors, obj.get("screen_name"), _as_name, "screen_name")
    counts = []
    for key in ("followers_count", "friends_count", "statuses_count"):
        count = obj.get(key)
        if type(count) is not int or count < 0:
            _bad_count(key)
        counts.append(count)

    following_raw = obj.get("following", [])
    _require(isinstance(following_raw, list), "'following' must be a list")
    following = set()
    for raw in following_raw:
        following.add(_cached(names.following, raw, _followed_name, "following"))

    location = obj.get("location")
    if location is not None:
        _require(isinstance(location, str), "'location' must be a string")

    return UserProfile(user_id, screen_name, *counts, frozenset(following), location)


class _TweetIds:
    """The tweet ids parsed so far, exactly; ``add`` tells a new id from a repeat.

    A canonical decimal id (ASCII digits, no leading zero unless it is
    ``"0"``, at most 19 digits), as every Twitter id is, is held as its
    int, which no other canonical id shares. One below 2**63 and above
    every id held so far is appended to ``_ascending``, a sorted
    ``array('q')``: 8 bytes an id and no Python object, for ids that arrive
    in order, as a stream's and the synthetic corpora's do. Any other int,
    and every other id as its string (``"07"``, ``"٧"``, ``"-3"``, a
    21-digit id), goes into the one ``_others`` set; no string equals an
    int, so distinct ids never collide.
    """

    __slots__ = ("_ascending", "_others", "last")

    def __init__(self) -> None:
        self._ascending = array("q")
        self._others: set[int | str] = set()

    def add(self, tweet_id: str) -> bool:
        """Hold ``tweet_id``; False when it was held already. When True,
        ``last`` is the key it is held as: its int or its string."""
        key: int | str = tweet_id
        if (tweet_id.isascii() and tweet_id.isdigit() and len(tweet_id) <= 19
                and (tweet_id[0] != "0" or len(tweet_id) == 1)):
            key = int(tweet_id)
            if key < 1 << 63:
                ascending = self._ascending
                if not ascending or key > ascending[-1]:
                    ascending.append(key)
                    self.last = key
                    return True
                # key <= ascending[-1], so the bisect lands on an item
                if ascending[bisect_left(ascending, key)] == key:
                    return False
        others = self._others
        if key in others:
            return False
        others.add(key)
        self.last = key
        return True


class _RangeLog:
    """What a forked worker notes of each record it takes from its range,
    beside its sink: per tweet its id key, its line and the sink's
    ``mark()`` after it; per profile its line. The parent reads these to
    drop a record that an earlier range holds, and to number a line within
    the whole file.

    ``keys`` holds each key that fits an int64, and -1, which no canonical
    id is, for any other key; ``odd`` holds those others as (tweet index,
    key). ``tweet`` is a closure over bound appends, as it runs once a
    tweet.
    """

    __slots__ = ("keys", "odd", "lines", "ends", "profile_lines", "tweet")

    def __init__(self, sink: Any) -> None:
        keys, lines, ends = self.keys, self.lines, self.ends = (
            array("q"), array("i"), array("i"))
        odd: list[tuple[int, int | str]] = []
        self.odd, self.profile_lines = odd, []
        add_key, add_line, add_end, mark = keys.append, lines.append, ends.append, sink.mark

        def tweet(lineno: int, key: int | str) -> None:
            add_line(lineno)
            add_end(mark())
            try:
                add_key(key)
            except (TypeError, OverflowError):
                odd.append((len(keys), key))
                add_key(-1)

        self.tweet = tweet


def _parse_lines(
    lines: Iterable[bytes],
    strict: bool,
    tweets: Any,
    profiles: list[UserProfile],
    log: _RangeLog | None = None,
) -> tuple[int, int, tuple[int, str] | None]:
    """Parse ``lines``, numbered from 1: append each valid tweet to
    ``tweets`` and each valid profile to ``profiles``, and count every other
    line as skipped. Return (lines read, skipped, error). Under ``strict``
    the loop stops at the first malformed line, and error is its (number,
    message); otherwise it is None. ``log``, when given, notes each record
    taken. The serial parse and every worker's range run this one loop."""
    skipped = 0
    seen_tweet_ids = _TweetIds()
    seen_screen_names: set[str] = set()
    names = _Names()
    lineno = 0
    # a last line without "\n" is still a line; a trailing "\n" opens none
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            skipped += 1
            continue
        try:
            # without its "\n", so JSON error positions stay on line 1
            text = raw.removesuffix(b"\n").decode("utf-8")
            # a line that is one JSON value with nothing around it decodes
            # as json.loads would; json.loads takes any other line, so
            # every error message is its own
            try:
                obj, end = _scan_once(text, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(text):
                obj = json.loads(text)
            _require(isinstance(obj, dict), "record is not an object")
            # only a \u escape can decode to a lone surrogate, which no
            # UTF-8 artifact can hold (a lone backslash is the cheap test)
            if "\\" in text and "\\u" in text:
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise _Malformed("a string holds a lone surrogate") from None
            kind = obj.get("kind")
            if kind == "tweet":
                tweet = _parse_tweet(obj, names)
                if not seen_tweet_ids.add(tweet.tweet_id):
                    raise _Malformed(f"duplicate tweet_id {tweet.tweet_id!r}")
                tweets.append(tweet)
                if log is not None:
                    log.tweet(lineno, seen_tweet_ids.last)
            elif kind == "profile":
                profile = _parse_profile(obj, names)
                if profile.screen_name in seen_screen_names:
                    raise _Malformed(f"duplicate profile {profile.screen_name!r}")
                seen_screen_names.add(profile.screen_name)
                profiles.append(profile)
                if log is not None:
                    log.profile_lines.append(lineno)
            else:
                raise _Malformed(f"unknown kind {kind!r}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if strict:
                return lineno, skipped, (lineno, f"invalid JSON: {exc}")
            skipped += 1
        except _Malformed as exc:
            if strict:
                return lineno, skipped, (lineno, str(exc))
            skipped += 1
    return lineno, skipped, None


# A sink that offers ``merge`` takes a corpus of this many bytes or more in
# two forked workers, one more for each further this many, at most one per
# CPU. It is about the measured break-even: on a 2-vCPU VM two workers
# took 1.17 times the serial parse's time on a 0.42 MiB synthetic corpus,
# 1.07 times on 0.84 MiB, 0.72-1.07 times on 1.05 MiB and 0.80-0.84 times
# on 1.26 MiB.
_PARALLEL_BYTES = 1 << 20


def parse_corpus(
    path: str | Path,
    strictness: str = "skip-malformed",
    tweets: Any = None,
) -> tuple[Any, list[UserProfile], int]:
    """Read a JSONL corpus; return (tweets, profiles, skipped_count).

    Each valid tweet is appended, in file order, to ``tweets``, which is
    returned: a new list when it is None, or the caller's sink, which needs
    only ``append`` and ``__len__``. The sink sees each tweet once and
    nothing else; a duplicate tweet id is caught before it gets there.
    Tweet ids compare as the strings they are (the JSON int ``7`` reads as
    ``"7"``; ``"07"`` is another id). Every physical line is either parsed
    into a record or counted as skipped, so ``len(tweets) + len(profiles)
    + skipped == line count`` for an empty sink. Under
    ``strict``, any malformed line (bad JSON, bad fields, duplicate tweet id
    or profile screen name) raises :class:`CorpusError`, whichever the
    sink, once the sink has taken the tweets before that line; blank lines
    are never an error, only skipped.

    An empty sink that also offers ``mark``, ``take`` and ``merge``, as
    ``graph.InteractionFold`` does, takes a corpus of ``_PARALLEL_BYTES``
    or more from forked workers (``_parse_in_workers``): one per further
    ``_PARALLEL_BYTES``, at most one per CPU this process may run on, when
    ``workers.worker_count`` allows forking. The result and every error
    are the same as the serial parse's.
    """
    if strictness not in STRICTNESS:
        raise ValueError(f"unknown strictness {strictness!r}")
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc

    if tweets is None:
        tweets = []
    profiles: list[UserProfile] = []
    strict = strictness == "strict"
    with handle:
        workers = 1
        if hasattr(tweets, "merge") and not len(tweets):
            size = os.fstat(handle.fileno()).st_size
            workers = worker_count(1 + size // _PARALLEL_BYTES)
        if workers == 1:
            _, skipped, error = _parse_lines(handle, strict, tweets, profiles)
            if error is not None:
                raise CorpusError(f"{path}:{error[0]}: {error[1]}")
            return tweets, profiles, skipped
    return _parse_in_workers(path, strict, tweets, workers)


def _range_lines(handle: Any, size: int) -> Iterator[bytes]:
    """The lines of ``handle``'s next ``size`` bytes, which end where a line does."""
    for raw in handle:
        yield raw
        size -= len(raw)
        if size <= 0:
            return


# a profile as the tuple of its fields, in the order UserProfile takes them
_profile_fields = attrgetter(*(field.name for field in fields(UserProfile)))


def _range_worker(writer: Any, path: str | Path, cuts: Sequence[int], taken: Any,
                  strict: bool, sink: Any, cpu: int) -> None:
    """A forked worker's body, on CPU ``cpu`` alone. Until every range is
    taken, it takes the next range index ``k`` from the shared count
    ``taken``, parses the lines from byte ``cuts[k]`` to ``cuts[k + 1]``
    into ``sink`` (the parent's empty sink as inherited at fork, emptied
    again by its ``take``) and sends the result to ``writer``: one pickled
    header, or what the parse raised, then the tweets' keys, lines and ends
    and the sink's buffers, each as raw bytes, so the parent holds each
    buffer once (``_receive``). Last comes a header of None."""
    try:
        os.sched_setaffinity(0, {cpu})
        with open(path, "rb") as handle:
            while True:
                with taken.get_lock():
                    k = taken.value
                    taken.value = k + 1
                if k >= len(cuts) - 1:
                    break
                handle.seek(cuts[k])
                profiles: list[UserProfile] = []
                log = _RangeLog(sink)
                n_lines, skipped, error = _parse_lines(
                    _range_lines(handle, cuts[k + 1] - cuts[k]), strict, sink, profiles, log)
                names, buffers = sink.take()
                writer.send((True, (k, n_lines, skipped, error, log.odd,
                                    [_profile_fields(profile) for profile in profiles],
                                    log.profile_lines, names, len(buffers))))
                for buffer in (log.keys, log.lines, log.ends, *buffers):
                    writer.send_bytes(buffer)
    except Exception as exc:
        writer.send((False, exc))
        return
    writer.send((True, None))


def _receive(worker: Any, reader: Any) -> tuple | None:
    """The next range ``_range_worker`` sent: its header, with the keys,
    lines and ends as arrays, and the sink's buffers; None once the
    worker has sent every range it took. A worker that raised makes this
    raise the same; one that ended before its None, RuntimeError."""
    try:
        ok, header = reader.recv()
        if not ok:
            raise header
        if header is None:
            return None
        *header, n_buffers = header
        keys = np.frombuffer(reader.recv_bytes(), dtype=np.int64)
        lines, ends = (np.frombuffer(reader.recv_bytes(), dtype=np.intc) for _ in range(2))
        buffers = [reader.recv_bytes() for _ in range(n_buffers)]
    except EOFError:
        worker.join()
        raise RuntimeError(f"a corpus parse worker exited with code {worker.exitcode} "
                           f"before sending every range it took") from None
    return (*header, keys, lines, ends, buffers)


def _cuts(path: str | Path, ranges: int) -> list[int]:
    """Byte offsets from 0 to the file's size that cut it into at most
    ``ranges`` ranges of about equal size, each cut just past a newline."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        cuts = [0]
        for i in range(1, ranges):
            handle.seek(max(size * i // ranges, cuts[-1]))
            handle.readline()
            if cuts[-1] < handle.tell() < size:
                cuts.append(handle.tell())
    return cuts + [size]


# Each worker takes ranges of the file in turn, this many per worker on
# the whole, so a worker whose CPU runs slower takes fewer of them. On a
# 2-vCPU VM whose vCPUs often differ in speed for minutes, one half of
# the network benchmark's corpus per worker took 0.35 s of one worker's
# CPU time and 0.58 s of the other's in about a quarter of calls, and
# made the benchmark's op median 0.826 s against 0.652 s with ranges
# taken in turn (seven rotated runs each).
_RANGES_PER_WORKER = 4


def _parse_in_workers(path: str | Path, strict: bool, tweets: Any,
                      workers: int) -> tuple[Any, list[UserProfile], int]:
    """``parse_corpus`` of ``path`` into the empty sink ``tweets`` by
    ``workers`` forked processes, each pinned to one CPU of this process's
    affinity mask. The file is cut at newlines into ``_RANGES_PER_WORKER``
    byte ranges per worker; each worker parses the next range no worker
    has taken, with ``_parse_lines``, until none is left.

    The ranges are merged in file order. A tweet id or profile screen name
    that an earlier range holds makes its record a duplicate, dropped with
    its contribution and counted as skipped, so the first in file order
    wins as in the serial parse. Under ``strict`` the earliest bad line in
    file order raises the serial parse's message, once ``tweets`` holds the
    tweets before it. No worker outlives the call; one that ends without
    sending every range it took makes the call raise ``RuntimeError``.
    """
    cuts = _cuts(path, _RANGES_PER_WORKER * workers)
    cpus = sorted(os.sched_getaffinity(0))
    context = multiprocessing.get_context("fork")
    taken = context.Value("i", 0)
    processes: list[Any] = []
    live: dict[Any, Any] = {}
    arrived: dict[int, tuple] = {}
    profiles: list[UserProfile] = []
    skipped = lineno_base = 0
    # the keys and screen names of the records that earlier ranges took
    held_keys = np.empty(0, dtype=np.int64)
    held_odd: set[int | str] = set()
    held_names: set[str] = set()
    try:
        for i in range(workers):
            reader, writer = context.Pipe(duplex=False)
            # closed here once the worker has its copy, so that a worker
            # that dies leaves its pipe with no writer
            with writer:
                worker = context.Process(
                    target=_range_worker,
                    args=(writer, path, cuts, taken, strict, tweets, cpus[i % len(cpus)]))
                worker.start()
            processes.append(worker)
            live[reader] = worker
        for k in range(len(cuts) - 1):
            while k not in arrived:
                for reader in connection.wait(list(live)):
                    result = _receive(live[reader], reader)
                    if result is None:
                        live.pop(reader).join()
                        reader.close()
                    else:
                        arrived[result[0]] = result[1:]
            (n_lines, range_skipped, error, odd, profile_fields, profile_lines, names,
             keys, lines, ends, buffers) = arrived.pop(k)
            dropped = _held(keys, held_keys, odd, held_odd)
            repeated = [j for j, row in enumerate(profile_fields) if row[1] in held_names]
            if strict and (dropped or repeated or error is not None):
                # the worker stopped at its first bad line, so every record
                # it took, the repeated ones too, comes before that line
                found = [(int(lines[t]), f"duplicate tweet_id {_id_text(keys, t, odd)!r}")
                         for t in dropped[:1]]
                found += [(profile_lines[j], f"duplicate profile {profile_fields[j][1]!r}")
                          for j in repeated[:1]]
                line, message = min(found) if found else error
                tweets.merge(names, buffers, ends[:int(np.searchsorted(lines, line))], [])
                raise CorpusError(f"{path}:{lineno_base + line}: {message}")
            tweets.merge(names, buffers, ends, dropped)
            repeated_set = set(repeated)
            profiles += [UserProfile(*row) for j, row in enumerate(profile_fields)
                         if j not in repeated_set]
            held_names.update(row[1] for row in profile_fields)
            skipped += range_skipped + len(dropped) + len(repeated)
            lineno_base += n_lines
            # ids that arrive in order make each range's keys a sorted
            # run, which a stable sort (timsort for int64) merges in
            # linear time
            held_keys = np.concatenate((held_keys, keys[keys >= 0]))
            held_keys.sort(kind="stable")
            held_odd.update(key for _, key in odd)
    except BaseException:
        for worker in processes:
            worker.terminate()
        raise
    finally:
        for reader in live:
            reader.close()
        for worker in processes:
            worker.join()
    return tweets, profiles, skipped


def _held(keys: np.ndarray, held_keys: np.ndarray, odd: list, held_odd: set) -> list[int]:
    """The indices, in order, of the tweets whose key is among the held ones."""
    found = []
    if held_keys.size:
        at = np.minimum(np.searchsorted(held_keys, keys), held_keys.size - 1)
        found = np.flatnonzero(held_keys[at] == keys).tolist()
    found += [t for t, key in odd if key in held_odd]
    return sorted(found)


def _id_text(keys: np.ndarray, t: int, odd: list) -> str:
    """Tweet ``t``'s id as the corpus spelled it: its key's int or string."""
    if keys[t] >= 0:
        return str(int(keys[t]))
    return str(dict(odd)[t])


# json.dumps with any non-default keyword builds a new encoder per call
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      ensure_ascii=False)


def canonical_dumps(obj: object) -> str:
    """Serialize to the canonical JSON form used for all on-disk artifacts:
    sorted keys, compact separators, non-ASCII text as is."""
    return _CANONICAL_ENCODER.encode(obj)


# what canonical_dumps writes for a string, and for a float
_json_str = json.encoder.encode_basestring
_json_float = _CANONICAL_ENCODER.encode


def _tweet_line(tweet: Tweet) -> str:
    """A tweet's canonical record as one ``write_corpus`` line, written in
    sorted key order directly: no record dict is built and no keys are
    sorted. ``tests/corpus_reference.py`` keeps the record as a dict, whose
    ``canonical_dumps`` plus a newline must equal this line."""
    geo = tweet.geo
    retweet_of = tweet.retweet_of
    return "".join((
        '{"author_id":', _json_str(tweet.author_id),
        ',"author_screen_name":', _json_str(tweet.author_screen_name),
        ',"created_at":"', format_timestamp(tweet.created_at), '",',
        "" if geo is None else
        f'"geo":{{"lat":{_json_float(geo[0])},"lon":{_json_float(geo[1])}}},',
        '"hashtags":[', ",".join(map(_json_str, tweet.hashtags)),
        '],"kind":"tweet","mentions":[', ",".join(map(_json_str, tweet.mentions)),
        "]," if retweet_of is None else '],"retweet_of":' + _json_str(retweet_of) + ",",
        '"text":', _json_str(tweet.text),
        ',"tweet_id":', _json_str(tweet.tweet_id), "}\n",
    ))


def profile_record(profile: UserProfile) -> dict:
    record = {
        "kind": "profile",
        "user_id": profile.user_id,
        "screen_name": profile.screen_name,
        "followers_count": profile.followers_count,
        "friends_count": profile.friends_count,
        "statuses_count": profile.statuses_count,
        "following": sorted(profile.following),
    }
    if profile.location is not None:
        record["location"] = profile.location
    return record


def write_corpus(
    path: str | Path,
    tweets: Sequence[Tweet],
    profiles: Sequence[UserProfile] = (),
) -> None:
    """Write records in canonical JSONL form (tweets first, then profiles)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(map(_tweet_line, tweets))
        for profile in profiles:
            handle.write(canonical_dumps(profile_record(profile)))
            handle.write("\n")
