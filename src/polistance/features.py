"""Feature representations for per-user classification.

Three representations are built here:

* a text TF-IDF matrix over word tokens (terms kept when used by at least
  5 distinct users),
* a hashtag TF-IDF matrix (support threshold 2),
* an 11-dimension per-user feature vector combining profile counts,
  party-account follow bits, and party keyword/hashtag occurrence counts.

TF is the user-normalized frequency n_ij / sum_k n_kj. IDF is
ln(|U| / (1 + |U_i|)) with |U| the number of users with at least one term
before pruning and |U_i| the number of distinct users of the term; the +1
pushes terms used by every user to a small negative weight, which is kept
as-is rather than floored. Support pruning removes columns, never tokens:
the TF denominator counts all of a user's (post-stoplist) tokens. A user
left with no kept term after pruning gets no row (but still counts in |U|).
"""

from __future__ import annotations

import json
import math
import reprlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Tweet, UserProfile, tokenize

__all__ = [
    "PARTIES",
    "FeatureError",
    "FeatureMatrix",
    "PartyLexicon",
    "PartyTerms",
    "VocabTerm",
    "build_hashtag_matrix",
    "build_text_matrix",
    "default_lexicon",
    "idf",
    "user_feature_vector",
    "write_matrix",
]

PARTIES = ("AAP", "BJP", "CONG")


class FeatureError(ValueError):
    """Raised for invalid feature-extraction inputs."""


@dataclass(frozen=True)
class VocabTerm:
    term: str
    user_count: int  # |U_i|: distinct users of the term
    idf: float


@dataclass(frozen=True)
class FeatureMatrix:
    """Sparse per-user TF-IDF matrix with its vocabulary."""

    vocabulary: tuple[VocabTerm, ...]
    user_ids: tuple[str, ...]
    rows: tuple[Mapping[int, float], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.user_ids), len(self.vocabulary))

    def dense(self, row_indices: Sequence[int]) -> np.ndarray:
        """The given rows, in the given order, as a dense float64 array."""
        out = np.zeros((len(row_indices), len(self.vocabulary)), dtype=np.float64)
        for k, i in enumerate(row_indices):
            for j, value in self.rows[i].items():
                out[k, j] = value
        return out


def idf(user_count: int, term_user_count: int) -> float:
    """Inverse document frequency ln(|U| / (1 + |U_i|)).

    Negative for terms used by (almost) every user; that is deliberate and
    kept unfloored.
    """
    if user_count < 1:
        raise FeatureError("user_count must be >= 1")
    if not 0 <= term_user_count <= user_count:
        raise FeatureError("term_user_count must lie in [0, user_count]")
    return math.log(user_count / (1 + term_user_count))


def _build_matrix(
    term_counts: Mapping[str, Mapping[str, int]],
    min_user_support: int,
    what: str,
) -> FeatureMatrix:
    if min_user_support < 1:
        raise FeatureError("min_user_support must be >= 1")

    kept = [(user_id, counts) for user_id, counts in term_counts.items() if counts]
    if not kept:
        raise FeatureError(f"no users with {what}; matrix would be empty")

    n_users = len(kept)  # |U|: users with a term, counted before pruning
    support: Counter[str] = Counter()
    for _, counts in kept:
        support.update(counts.keys())

    vocabulary = tuple(
        VocabTerm(term=term, user_count=support[term], idf=idf(n_users, support[term]))
        for term in sorted(support)
        if support[term] >= min_user_support
    )
    column = {entry.term: j for j, entry in enumerate(vocabulary)}

    user_ids = []
    rows = []
    for user_id, counts in kept:
        total = sum(counts.values())  # every token, pruned or not
        row = {}
        for term, count in counts.items():
            j = column.get(term)
            if j is not None:
                row[j] = count / total * vocabulary[j].idf
        if row:
            user_ids.append(user_id)
            rows.append(row)
    if not rows:
        raise FeatureError(
            f"no {what} used by {min_user_support} or more users; matrix would be empty"
        )

    return FeatureMatrix(vocabulary=vocabulary, user_ids=tuple(user_ids), rows=tuple(rows))


def build_text_matrix(
    token_counts: Mapping[str, Mapping[str, int]],
    min_user_support: int = 5,
) -> FeatureMatrix:
    """TF-IDF matrix over word tokens, one row per user.

    ``token_counts`` maps each user to the occurrence count of each of
    their tokens. Users with zero tokens are left out of the matrix and
    of |U|. Users whose every token is pruned are left out of the matrix
    but count in |U|. Raises FeatureError when no user is left.
    """
    return _build_matrix(token_counts, min_user_support, "tokens")


def build_hashtag_matrix(
    hashtag_counts: Mapping[str, Mapping[str, int]],
    min_user_support: int = 2,
) -> FeatureMatrix:
    """TF-IDF matrix over hashtag occurrences, one row per user.

    ``hashtag_counts`` maps each user to the occurrence count of each of
    their hashtags. Users with no hashtags are left out of the matrix and
    of |U|; users whose every hashtag is pruned are left out of the matrix
    but count in |U|. Raises FeatureError when no user is left.
    """
    return _build_matrix(hashtag_counts, min_user_support, "hashtags")


@dataclass(frozen=True)
class PartyTerms:
    """Lowercase keyword/hashtag/account buckets for one party."""

    keywords: frozenset[str]
    hashtags: frozenset[str]
    seed_accounts: frozenset[str]

    def __post_init__(self) -> None:
        for name in ("keywords", "hashtags", "seed_accounts"):
            values = getattr(self, name)
            object.__setattr__(self, name, frozenset(values))
            for value in values:
                if value != value.lower():
                    raise FeatureError(f"{name} entry {value!r} is not lowercase")
                if name == "hashtags" and value.startswith("#"):
                    raise FeatureError(f"hashtag {value!r} must not carry '#'")


@dataclass(frozen=True)
class PartyLexicon:
    """Keyword, hashtag, and seed-account buckets for the three parties."""

    parties: Mapping[str, PartyTerms]

    def __post_init__(self) -> None:
        if set(self.parties) != set(PARTIES):
            raise FeatureError(f"lexicon must cover exactly {PARTIES}")
        seen: dict[str, str] = {}
        for party in PARTIES:
            for account in self.parties[party].seed_accounts:
                if account in seen:
                    raise FeatureError(
                        f"seed account {account!r} appears under both "
                        f"{seen[account]} and {party}"
                    )
                seen[account] = party

    def terms(self, party: str) -> PartyTerms:
        return self.parties[party]

    def seed_party_map(self) -> dict[str, str]:
        """screen_name -> party, over all seed accounts."""
        return {
            account: party
            for party in PARTIES
            for account in self.parties[party].seed_accounts
        }

    @classmethod
    def from_file(cls, path: str | Path) -> "PartyLexicon":
        """The lexicon of a JSON file: ``{party: {bucket: [entry, ...]}}``."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FeatureError(f"cannot read lexicon {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise FeatureError(f"{path}: lexicon must be an object keyed by party")
        try:
            return cls(parties={party: _party_terms(party, buckets)
                                for party, buckets in raw.items()})
        except FeatureError as exc:
            raise FeatureError(f"{path}: {exc}") from None


def _party_terms(party: str, buckets: object) -> PartyTerms:
    """One party's buckets as read from a lexicon file."""
    if not isinstance(buckets, dict):
        raise FeatureError(f"party {party!r} must map to an object")
    unknown = set(buckets) - {"keywords", "hashtags", "seed_accounts"}
    if unknown:
        raise FeatureError(f"unknown bucket {sorted(unknown)} in {party!r}")
    for bucket, entries in buckets.items():
        # a bare string would otherwise become a set of its letters
        if not (isinstance(entries, list) and all(isinstance(e, str) for e in entries)):
            raise FeatureError(f"party {party!r} bucket {bucket!r} must be a list of "
                               f"strings, got {reprlib.repr(entries)}")
    try:
        return PartyTerms(
            keywords=frozenset(buckets.get("keywords", [])),
            hashtags=frozenset(buckets.get("hashtags", [])),
            seed_accounts=frozenset(buckets.get("seed_accounts", [])),
        )
    except FeatureError as exc:
        raise FeatureError(f"party {party!r}: {exc}") from None


def default_lexicon() -> PartyLexicon:
    """Built-in party buckets: names, leaders, common campaign tags."""
    return PartyLexicon(
        parties={
            "AAP": PartyTerms(
                keywords=frozenset({
                    "aap", "aamaadmiparty", "kejriwal", "arvindkejriwal",
                    "jhadu", "broom", "sisodia", "lokpal", "swaraj",
                }),
                hashtags=frozenset({
                    "aap", "aapsweep", "aamaadmiparty", "kejriwal",
                    "vote4aap", "jhadu", "aapkidilli",
                }),
                seed_accounts=frozenset({
                    "aamaadmiparty", "arvindkejriwal", "msisodia",
                }),
            ),
            "BJP": PartyTerms(
                keywords=frozenset({
                    "bjp", "modi", "namo", "narendramodi", "modiji",
                    "rajnath", "gujarat", "hindutva", "nda",
                }),
                hashtags=frozenset({
                    "bjp", "namo", "modi", "namo4pm", "abkibaarmodisarkar",
                    "modiwave", "nda",
                }),
                seed_accounts=frozenset({
                    "bjp4india", "narendramodi", "arunjaitley", "amitshah",
                }),
            ),
            "CONG": PartyTerms(
                keywords=frozenset({
                    "congress", "rahul", "rahulgandhi", "sonia",
                    "soniagandhi", "gandhi", "upa", "manmohan", "raga",
                }),
                hashtags=frozenset({
                    "congress", "rahulgandhi", "upa", "voteforcongress",
                    "inc", "withrg",
                }),
                seed_accounts=frozenset({
                    "incindia", "rahulgandhi", "priyankagandhi",
                }),
            ),
        }
    )


FEATURE_NAMES = (
    "friends_count",
    "followers_count",
    "following_aap",
    "following_bjp",
    "following_cong",
    "aap_words",
    "bjp_words",
    "cong_words",
    "aap_hashtags",
    "bjp_hashtags",
    "cong_hashtags",
)


def user_feature_vector(
    profile: UserProfile,
    tweets: Sequence[Tweet],
    lexicon: PartyLexicon,
) -> tuple[int, ...]:
    """The user's 11 features, in FEATURE_NAMES order.

    Word and hashtag counts are occurrence totals over all the user's
    tweets, not distinct-term counts; each following bit is 0 or 1.
    """
    for tweet in tweets:
        if tweet.author_screen_name != profile.screen_name:
            raise FeatureError(
                f"tweet {tweet.tweet_id} authored by {tweet.author_screen_name!r}, "
                f"not {profile.screen_name!r}"
            )

    tokens: list[str] = []
    hashtags: list[str] = []
    for tweet in tweets:
        tokens.extend(tokenize(tweet.text))
        hashtags.extend(tweet.hashtags)

    def word_count(party: str) -> int:
        keywords = lexicon.terms(party).keywords
        return sum(1 for token in tokens if token in keywords)

    def hashtag_count(party: str) -> int:
        tags = lexicon.terms(party).hashtags
        return sum(1 for tag in hashtags if tag in tags)

    def follows(party: str) -> int:
        return int(bool(profile.following & lexicon.terms(party).seed_accounts))

    return (
        profile.friends_count,
        profile.followers_count,
        *map(follows, PARTIES),
        *map(word_count, PARTIES),
        *map(hashtag_count, PARTIES),
    )


def write_matrix(
    matrix: FeatureMatrix,
    triplets_path: str | Path,
    vocabulary_path: str | Path,
    users_path: str | Path,
) -> None:
    """Export a matrix as row/col/value triplets plus two sidecars.

    The vocabulary sidecar is a TSV of term, user count, and idf; the users
    sidecar lists user ids in row order. Floats are written with repr so a
    reader recovers them bit-exactly.
    """
    with open(triplets_path, "w", encoding="utf-8", newline="\n") as handle:
        for i, row in enumerate(matrix.rows):
            for j in sorted(row):
                handle.write(f"{i} {j} {row[j]!r}\n")
    with open(vocabulary_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("term\tusers\tidf\n")
        for entry in matrix.vocabulary:
            handle.write(f"{entry.term}\t{entry.user_count}\t{entry.idf!r}\n")
    with open(users_path, "w", encoding="utf-8", newline="\n") as handle:
        for user_id in matrix.user_ids:
            handle.write(user_id + "\n")
