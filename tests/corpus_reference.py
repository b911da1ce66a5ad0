"""A frozen copy of ``corpus.parse_corpus`` from before its fast paths.

The differential oracle (``tests/test_corpus_oracle.py``) runs the live
parser and this reference on the same files and requires the same
outcome: the same records, the same skip count, or the same error text.
The per-field checks below are deliberately the slow, obvious ones; do
not speed them up. ``tweet_record`` keeps a tweet's canonical record as a
dict, the reference for the line that ``write_corpus`` writes without
building one. The module imports only the standard library and
``polistance.corpus``, so ``check_fixed_cases`` runs under any supported
Python without numpy, pytest or hypothesis:

    PYTHONPATH=src:tests python -c "import corpus_reference as r; r.check_fixed_cases()"
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from polistance.corpus import (
    CorpusError,
    Tweet,
    UserProfile,
    format_timestamp,
    parse_corpus,
)

STRICTNESS = ("skip-malformed", "strict")

_HASHTAG_RE = re.compile(r"#(\w+)")
_MENTION_RE = re.compile(r"@(\w+)")


class _Malformed(Exception):
    pass


def _parse_rfc3339(value):
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


def _extract_entities(text):
    hashtags = list(dict.fromkeys(m.lower() for m in _HASHTAG_RE.findall(text)))
    mentions = list(dict.fromkeys(m.lower() for m in _MENTION_RE.findall(text)))
    return hashtags, mentions


def _require(condition, message):
    if not condition:
        raise _Malformed(message)


def _as_id(obj, key):
    value = obj.get(key)
    if isinstance(value, int) and not isinstance(value, bool):
        value = str(value)
    _require(isinstance(value, str) and value != "", f"missing or empty {key!r}")
    return value


def _word(value, field):
    if value.split() != [value]:
        raise _Malformed(f"bad name in {field!r}: {value!r}")
    return sys.intern(value)


def _as_name(obj, key):
    value = obj.get(key)
    _require(isinstance(value, str), f"missing {key!r}")
    return _word(value.lower(), key)


def _as_count(obj, key):
    value = obj.get(key)
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 0,
        f"{key!r} must be a non-negative integer",
    )
    return value


def _entity_list(obj, key, marker):
    if key not in obj:
        return None
    values = obj[key]
    _require(isinstance(values, list), f"{key!r} must be a list")
    out = {}
    for item in values:
        _require(isinstance(item, str), f"{key!r} entries must be strings")
        entity = item.lower()
        if entity.startswith(marker):
            entity = entity[len(marker):]
        _require("#" not in entity and "@" not in entity, f"bad entry in {key!r}: {item!r}")
        out[_word(entity, key)] = None
    return tuple(out)


def _parse_tweet(obj):
    tweet_id = _as_id(obj, "tweet_id")
    author_id = sys.intern(_as_id(obj, "author_id"))
    author = _as_name(obj, "author_screen_name")
    try:
        created_at = _parse_rfc3339(obj.get("created_at"))
    except ValueError as exc:
        raise _Malformed(str(exc)) from None
    text = obj.get("text")
    _require(isinstance(text, str), "missing 'text'")

    hashtags = _entity_list(obj, "hashtags", "#")
    mentions = _entity_list(obj, "mentions", "@")
    if hashtags is None or mentions is None:
        found_tags, found_mentions = _extract_entities(text)
        if hashtags is None:
            hashtags = tuple(map(sys.intern, found_tags))
        if mentions is None:
            mentions = tuple(map(sys.intern, found_mentions))

    retweet_of = obj.get("retweet_of")
    if retweet_of is not None:
        _require(isinstance(retweet_of, str), "bad 'retweet_of'")
        retweet_of = _word(retweet_of.lower().lstrip("@"), "retweet_of")
        if retweet_of == author:
            retweet_of = None

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

    return Tweet(
        tweet_id=tweet_id,
        author_id=author_id,
        author_screen_name=author,
        created_at=created_at,
        text=text,
        hashtags=hashtags,
        mentions=mentions,
        retweet_of=retweet_of,
        geo=geo,
    )


def _parse_profile(obj):
    user_id = _as_id(obj, "user_id")
    screen_name = _as_name(obj, "screen_name")
    followers = _as_count(obj, "followers_count")
    friends = _as_count(obj, "friends_count")
    statuses = _as_count(obj, "statuses_count")

    following_raw = obj.get("following", [])
    _require(isinstance(following_raw, list), "'following' must be a list")
    following = set()
    for name in following_raw:
        _require(isinstance(name, str), "'following' entries must be names")
        following.add(_word(name.lower().lstrip("@"), "following"))

    location = obj.get("location")
    if location is not None:
        _require(isinstance(location, str), "'location' must be a string")

    return UserProfile(
        user_id=user_id,
        screen_name=screen_name,
        followers_count=followers,
        friends_count=friends,
        statuses_count=statuses,
        following=frozenset(following),
        location=location,
    )


def reference_parse_corpus(path, strictness="skip-malformed"):
    if strictness not in STRICTNESS:
        raise ValueError(f"unknown strictness {strictness!r}")
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc

    tweets = []
    profiles = []
    skipped = 0
    seen_tweet_ids = set()
    seen_screen_names = set()

    with handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                skipped += 1
                continue
            try:
                obj = json.loads(raw.removesuffix(b"\n").decode("utf-8"))
                _require(isinstance(obj, dict), "record is not an object")
                if b"\\u" in raw:
                    try:
                        json.dumps(obj, ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError:
                        raise _Malformed("a string holds a lone surrogate") from None
                kind = obj.get("kind")
                if kind == "tweet":
                    tweet = _parse_tweet(obj)
                    _require(tweet.tweet_id not in seen_tweet_ids,
                             f"duplicate tweet_id {tweet.tweet_id!r}")
                    seen_tweet_ids.add(tweet.tweet_id)
                    tweets.append(tweet)
                elif kind == "profile":
                    profile = _parse_profile(obj)
                    _require(profile.screen_name not in seen_screen_names,
                             f"duplicate profile {profile.screen_name!r}")
                    seen_screen_names.add(profile.screen_name)
                    profiles.append(profile)
                else:
                    raise _Malformed(f"unknown kind {kind!r}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if strictness == "strict":
                    raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                skipped += 1
            except _Malformed as exc:
                if strictness == "strict":
                    raise CorpusError(f"{path}:{lineno}: {exc}") from None
                skipped += 1

    return tweets, profiles, skipped


def tweet_record(tweet: Tweet) -> dict:
    """The canonical record of a tweet, whose ``canonical_dumps`` is its
    line in ``write_corpus``."""
    record = {
        "kind": "tweet",
        "tweet_id": tweet.tweet_id,
        "author_id": tweet.author_id,
        "author_screen_name": tweet.author_screen_name,
        "created_at": format_timestamp(tweet.created_at),
        "text": tweet.text,
        "hashtags": list(tweet.hashtags),
        "mentions": list(tweet.mentions),
    }
    if tweet.retweet_of is not None:
        record["retweet_of"] = tweet.retweet_of
    if tweet.geo is not None:
        record["geo"] = {"lat": tweet.geo[0], "lon": tweet.geo[1]}
    return record


# -- what the oracle compares -------------------------------------------------

TWEET = {"kind": "tweet", "tweet_id": "1", "author_id": "7",
         "author_screen_name": "Modi", "created_at": "2014-04-01T10:00:00Z",
         "text": "vote #BJP with @AmitShah"}
PROFILE = {"kind": "profile", "user_id": "7", "screen_name": "Modi",
           "followers_count": 10, "friends_count": 2, "statuses_count": 5}

# one raw spelling tried in every name field: each field normalizes it its
# own way, so a field that borrowed another's cached result would differ
NAMES = [
    "modi", "Modi", "MODI", "#Modi", "@Modi", "@@modi", "##modi", "#", "@",
    "Mo di", "", " ", "modi ", "\tmodi", "a#b", "a@b", "a\x1cb", "a\u00a0b",
    "a\u2028b", "a\u200bb", "\u0130stanbul", "\u01c5emal", "stra\u00dfe",
    "\uff2d\uff4f\uff44\uff49", "\ud800", "mödi", 5, None, True, ["modi"],
    {"a": 1},
]
TIMESTAMPS = [
    "2014-04-01T00:00:00Z", "2014-04-01T23:59:59Z", "2014-04-01T00:00:00z",
    "2014-04-01t00:00:00Z", "2014-04-01 00:00:00Z", "2014-04-01T05:30:00+05:30",
    "2014-04-01T00:00:00-00:00", "2014-04-01T00:00:00.123Z",
    "2014-04-01T00:00:00.123456+00:00", "2014-04-01T00:00:00.5Z",
    "2014-04-01T00:00:00.1234567Z", "20140401T000000Z", "20140401T000000.123Z",
    "2014-04-01T00:00:00", "2014-04-01", "2014-04-01Z", " 2014-04-01T00:00:00Z",
    "2014-04-01T00:00:00Z ", "2014-04-01T24:00:00Z", "2014-02-30T00:00:00Z",
    "2014-04-01T00:00:60Z", "2014-04-01T0 :00:00Z", "2014-04-01T00:00:0\uff11Z",
    "201\u0664-04-01T00:00:00Z", "+014-04-01T00:00:00Z", "2014-04-01T00:00:00ZZ",
    "2014-04-01T00:00:00+00:00Z", "2014-04-01T00+05:30Z", "2014-04-01T00:00Z",
    "2014-04-01T00:00:00_Z", "2014_04_01T00:00:00Z", "2014-04-01T00:00:00 Z",
    "2014-W14-2T00:00:00Z", "2014-091T00:00:00Z", "2014-04-01+05:30:00Z",
    "0001-01-01T00:00:00+00:01", "9999-12-31T23:59:59-00:01", "", "Z", 20140401,
    None, True,
]
# the live parser's tweet-id ledger holds 7 and a 19-digit id below 2**63
# as ints, while "07", "\u0667" (Arabic-Indic seven) and 2**63 stay strings:
# neither of the first two may collide with 7
IDS = ["1", "2", "", " ", "1 2", 7, "07", "\u0667", str(2 ** 63), "1234567890123456789",
       1, 0, -3, 10 ** 20, True, False, 1.5, None, ["1"]]
TEXTS = ["x", "", "hi #Tag @User #tag", "RT @Modi: #NaMo", "hi \ud800",
         "\U0001f600 #मोदी", 5, None]
ENTITY_LISTS = [
    [], ["#Modi"], ["Modi", "modi", "MODI"], ["@Modi"], ["#@x"], ["Mo di"], [""],
    ["ok", 1], "modi", None, {"a": 1}, ["İ"], ["a b"], ["#", "@"],
]
RETWEETS = ["@Modi", "modi", "@@Modi", "", "Mo di", "#Modi", 1, None, ["modi"]]
GEOS = [
    {"lat": 28.6, "lon": 77.2}, {"lat": 1, "lon": 2}, {"lat": 90, "lon": -180},
    {"lat": 90.5, "lon": 0}, {"lat": 0, "lon": 181}, {"lat": True, "lon": 0},
    {"lat": "1", "lon": 0}, {"lat": 1}, {"lat": 1, "lon": 2, "x": 3}, [1, 2],
    {"lat": float("nan"), "lon": 0}, {"lat": float("inf"), "lon": 0}, "here", None,
]
COUNTS = [0, 5, -1, 10 ** 20, True, 1.0, "5", None]
FOLLOWING = [[], ["@Modi", "modi", "#Modi"], ["Mo di"], [1], "modi", None,
             ["@"], ["a\x1cb"]]
LOCATIONS = ["Delhi", "", 5, None, "delhi \ud800"]

# field -> values one mutation may set (or delete, with ABSENT)
ABSENT = object()
TWEET_FIELDS = {
    "tweet_id": IDS, "author_id": IDS, "author_screen_name": NAMES,
    "created_at": TIMESTAMPS, "text": TEXTS, "hashtags": ENTITY_LISTS + NAMES,
    "mentions": ENTITY_LISTS + NAMES, "retweet_of": RETWEETS + NAMES, "geo": GEOS,
    "kind": ["profile", "retweet", "", None],
}
PROFILE_FIELDS = {
    "user_id": IDS, "screen_name": NAMES, "followers_count": COUNTS,
    "friends_count": COUNTS, "statuses_count": COUNTS,
    "following": FOLLOWING + [[name] for name in NAMES], "location": LOCATIONS,
    "kind": ["tweet", "Profile", None],
}

# a line-level mutation: the record's bytes to the line's bytes
LINE_FORMS = {
    "plain": lambda b: b,
    "leading space": lambda b: b" " + b,
    "leading tab": lambda b: b"\t" + b,
    "trailing space": lambda b: b + b"  ",
    "crlf": lambda b: b + b"\r",
    "bom": lambda b: b"\xef\xbb\xbf" + b,
    "trailing object": lambda b: b + b" {}",
    "trailing garbage": lambda b: b + b"x",
    "truncated": lambda b: b[: len(b) // 2],
    "bad utf-8": lambda b: b[:5] + b"\xff" + b[5:],
    "in a list": lambda b: b"[" + b + b"]",
    "blank": lambda b: b"   ",
}


def record_line(record: dict, ascii_escapes: bool = False, form: str = "plain") -> bytes:
    """The bytes of one corpus line holding ``record``.

    ``ascii_escapes`` writes every non-ASCII character as a ``\\u`` escape.
    """
    text = json.dumps({k: v for k, v in record.items() if v is not ABSENT},
                      ensure_ascii=ascii_escapes)
    return LINE_FORMS[form](text.encode("utf-8", "surrogatepass"))


def fixed_lines() -> list[bytes]:
    """Every single-field mutation of TWEET and PROFILE, and every line form."""
    lines = []
    for base, fields in ((TWEET, TWEET_FIELDS), (PROFILE, PROFILE_FIELDS)):
        for field, values in fields.items():
            for value in [*values, ABSENT]:
                for ascii_escapes in (False, True):
                    lines.append(record_line({**base, field: value}, ascii_escapes))
        for form in LINE_FORMS:
            lines.append(record_line(base, form=form))
    lines.extend([b"1", b"null", b'"tweet"', b"{}", b"{broken", b"\xef\xbb\xbf"])
    return lines


def outcome(parse, path, strictness: str):
    """What ``parse`` makes of ``path``: its result, or its error's type and text."""
    try:
        return parse(path, strictness=strictness)
    except Exception as exc:  # a crash must match too
        return type(exc).__name__, str(exc)


def differences(path) -> list[str]:
    """How the live parser and the reference differ on ``path``; [] when they agree.

    Besides equal outcomes, every timestamp the live parser returns must
    carry ``timezone.utc`` itself, as ``parse_rfc3339``'s do.
    """
    found = []
    for strictness in STRICTNESS:
        live = outcome(parse_corpus, path, strictness)
        reference = outcome(reference_parse_corpus, path, strictness)
        if live != reference:
            found.append(f"{strictness}: live {live!r} != reference {reference!r}")
        elif isinstance(live[0], list):
            for tweet in live[0]:
                if tweet.created_at.tzinfo is not timezone.utc:
                    found.append(f"{strictness}: {tweet.created_at!r} is not in timezone.utc")
    return found


def check_fixed_cases() -> None:
    """Compare both parsers on each fixed line after a valid one, and on all at once."""
    lines = fixed_lines()
    # a valid tweet and profile that no fixed line duplicates
    good = (record_line({**TWEET, "tweet_id": "0"}) + b"\n"
            + record_line({**PROFILE, "screen_name": "other"}))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        for line in lines:
            path.write_bytes(good + b"\n" + line + b"\n" + line + b"\n")
            failures += [f"{line!r}: {d}" for d in differences(path)]
        path.write_bytes(b"\n".join(lines) + b"\n")
        failures += [f"all lines: {d}" for d in differences(path)]
    if failures:
        raise AssertionError("\n".join(failures))
    print(f"{len(lines)} fixed lines: live parser agrees with the reference "
          f"on Python {sys.version.split()[0]}")
