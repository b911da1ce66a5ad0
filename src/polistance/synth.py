"""Synthetic corpora with planted party structure, for testing and demos.

Users belong to one of three parties and tweet from skewed vocabularies;
interactions (retweets and mentions) stay mostly inside the party, so the
interaction graph carries a recoverable community signal. Annotations come
from simulated annotators who flip labels at a configurable noise rate.
Everything is a pure function of the ``SyntheticSpec``, so equal seeds
give byte-identical output files.

Also hosts ``planted_partition_graph``, a block-model generator used to
exercise community detection at controlled difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .annotation import LABELS, Annotation, write_annotations
from .corpus import Tweet, UserProfile, write_corpus
from .features import PARTIES, PartyLexicon, default_lexicon
from .graph import InteractionGraph

__all__ = [
    "SyntheticCorpus",
    "SyntheticSpec",
    "SynthError",
    "generate_corpus",
    "planted_partition_graph",
    "skewed_preset",
    "write_synthetic",
]

_SEED_MASK = (1 << 64) - 1

# stream ids for the independent rng lanes of one generation run
_CONTENT_STREAM = 7001
_INTERACT_STREAM = 7002
_ANNOTATE_STREAM = 7003
_PROFILE_STREAM = 7004

_EPOCH = datetime(2014, 4, 1, 0, 0, 0, tzinfo=timezone.utc)

# when a token is political, how often it names the author's own party
# rather than an opponent; below 1.0 the text signal gets noisy the way
# real political chatter does (people talk about the other side a lot)
_OWN_PARTY_SHARE = 0.55

# how often a token is political, for every party
_VOCAB_SKEW = 0.25

# simulated annotators per user
_N_ANNOTATORS = 3

_NEUTRAL_WORDS = (
    "morning evening night today tomorrow people crowd rally speech news "
    "media tv debate vote votes voter booth poll campaign leader promise "
    "road water power job jobs farmer student city village market price "
    "rupee bank school college hospital doctor teacher police court law "
    "bill tax budget growth economy youth women safety metro train bus "
    "chai food cricket movie song festival traffic airport rain summer"
).split()

_NEUTRAL_TAGS = ("india", "elections2014", "delhi", "mumbai", "news", "polls")

_LOCATIONS = ("Delhi", "Mumbai", "Bangalore", "Chennai", "Varanasi", None)

# who a party's supporters are annotated as being against
_OPPONENT = {"AAP": "BJP", "BJP": "AAP", "CONG": "BJP"}


class SynthError(ValueError):
    """Raised for invalid generator parameters."""


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise SynthError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic corpus."""

    users_per_party: Mapping[str, int] = field(
        default_factory=lambda: {"AAP": 40, "BJP": 40, "CONG": 40}
    )
    tweets_per_user: int = 30
    p_intra: float = 0.3
    p_cross: float = 0.02
    annotator_noise: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if set(self.users_per_party) != set(PARTIES):
            raise SynthError(f"users_per_party must cover exactly {PARTIES}")
        for party, count in self.users_per_party.items():
            if count < 1:
                raise SynthError(f"users_per_party[{party!r}] must be >= 1")
        if self.tweets_per_user < 1:
            raise SynthError("tweets_per_user must be >= 1")
        _check_prob("p_intra", self.p_intra)
        _check_prob("p_cross", self.p_cross)
        if self.p_intra + self.p_cross > 1.0:
            raise SynthError("p_intra + p_cross must not exceed 1")
        _check_prob("annotator_noise", self.annotator_noise)


def skewed_preset(rng_seed: int = 0) -> SyntheticSpec:
    """Heavily imbalanced parameters (AAP 133 / BJP 447 / CONG 33)."""
    return SyntheticSpec(
        users_per_party={"AAP": 133, "BJP": 447, "CONG": 33},
        rng_seed=rng_seed,
    )


@dataclass(frozen=True)
class SyntheticCorpus:
    """A generated corpus plus its planted ground truth."""

    tweets: tuple[Tweet, ...]
    profiles: tuple[UserProfile, ...]
    annotations: tuple[Annotation, ...]
    truth: Mapping[str, str]


def _party_vocab(lexicon: PartyLexicon) -> dict[str, tuple[str, ...]]:
    return {p: tuple(sorted(lexicon.terms(p).keywords)) for p in PARTIES}


def _party_tags(lexicon: PartyLexicon) -> dict[str, tuple[str, ...]]:
    return {p: tuple(sorted(lexicon.terms(p).hashtags)) for p in PARTIES}


def _pick(rng: np.random.Generator, pool: Sequence[str]) -> str:
    return pool[int(rng.integers(len(pool)))]


def generate_corpus(spec: SyntheticSpec) -> SyntheticCorpus:
    """Build tweets, profiles, and annotations for one spec.

    Layout per user: ``tweets_per_user`` tweets of about eight tokens.
    Each tweet is, with probability ``p_intra``, an interaction with a
    same-party member (seed accounts included), with probability
    ``p_cross`` an interaction across parties, otherwise plain text.
    Tokens are political with probability ``_VOCAB_SKEW``; a political
    token names the author's party with probability ``_OWN_PARTY_SHARE``,
    otherwise one of the other two. Every draw is one scalar call on its
    lane's generator, in a fixed order, so the output is a pure function
    of the spec. No pool is built per tweet, so the time is linear in
    users x tweets.
    """
    lexicon = default_lexicon()
    words = _party_vocab(lexicon)
    tags = _party_tags(lexicon)
    seed_map = lexicon.seed_party_map()
    seeds_of = {
        p: tuple(sorted(lexicon.terms(p).seed_accounts)) for p in PARTIES
    }

    users: list[tuple[str, str]] = []  # (screen_name, party)
    for party in PARTIES:
        for i in range(spec.users_per_party[party]):
            users.append((f"{party.lower()}_user{i:03d}", party))
    # a party's users in order, then its seed accounts: user i of a party
    # stands at position i of its members
    members = {
        p: tuple(n for n, q in users if q == p) + seeds_of[p] for p in PARTIES
    }
    others_of = {p: tuple(q for q in PARTIES if q != p) for p in PARTIES}
    across = {p: tuple(m for q in others_of[p] for m in members[q]) for p in PARTIES}

    content = np.random.default_rng((spec.rng_seed & _SEED_MASK, _CONTENT_STREAM))
    interact = np.random.default_rng((spec.rng_seed & _SEED_MASK, _INTERACT_STREAM))
    profile_rng = np.random.default_rng((spec.rng_seed & _SEED_MASK, _PROFILE_STREAM))
    annotate = np.random.default_rng((spec.rng_seed & _SEED_MASK, _ANNOTATE_STREAM))
    content_random, content_integers = content.random, content.integers
    interact_random, interact_integers = interact.random, interact.integers

    p_intra = spec.p_intra
    p_interact = spec.p_intra + spec.p_cross
    created = _EPOCH
    step = timedelta(minutes=7)
    tweets: list[Tweet] = []
    user_index = 0
    for party in PARTIES:
        same = members[party]
        cross_pool = across[party]
        others = others_of[party]
        for position in range(spec.users_per_party[party]):
            name = same[position]
            author_id = str(1000 + user_index)
            for _ in range(spec.tweets_per_user):
                parts: list[str] = []
                mentions: tuple[str, ...] = ()
                retweet_of = None

                roll = interact_random()
                if roll < p_interact:
                    if roll < p_intra:
                        # a draw over the party without its author, who
                        # stands at ``position``: step past that slot
                        k = int(interact_integers(len(same) - 1))
                        target = same[k + (k >= position)]
                    else:
                        target = cross_pool[interact_integers(len(cross_pool))]
                    if interact_random() < 0.5:
                        retweet_of = target
                        parts.append("rt")
                    parts.append("@" + target)
                    mentions = (target,)

                hashtags: list[str] = []
                for _ in range(8):
                    if content_random() < _VOCAB_SKEW:
                        if content_random() < _OWN_PARTY_SHARE:
                            topic = party
                        else:
                            topic = others[content_integers(len(others))]
                        if content_random() < 0.25:
                            pool = tags[topic]
                            tag = pool[content_integers(len(pool))]
                            parts.append("#" + tag)
                            hashtags.append(tag)
                        else:
                            pool = words[topic]
                            parts.append(pool[content_integers(len(pool))])
                    else:
                        parts.append(
                            _NEUTRAL_WORDS[content_integers(len(_NEUTRAL_WORDS))])
                if content_random() < 0.1:
                    tag = _NEUTRAL_TAGS[content_integers(len(_NEUTRAL_TAGS))]
                    parts.append("#" + tag)
                    hashtags.append(tag)

                tweets.append(Tweet(str(500000 + len(tweets)), author_id, name,
                                    created, " ".join(parts),
                                    tuple(dict.fromkeys(hashtags)), mentions,
                                    retweet_of))
                created += step
            user_index += 1

    profiles: list[UserProfile] = []
    for idx, (name, party) in enumerate(users):
        following = {
            s for s in seeds_of[party] if profile_rng.random() < 0.85
        }
        for other in PARTIES:
            if other != party:
                for s in seeds_of[other]:
                    if profile_rng.random() < 0.03:
                        following.add(s)
        profiles.append(
            UserProfile(
                user_id=str(1000 + idx),
                screen_name=name,
                followers_count=int(profile_rng.integers(20, 3000)),
                friends_count=int(profile_rng.integers(20, 1500)),
                statuses_count=spec.tweets_per_user,
                following=frozenset(following),
                location=_LOCATIONS[idx % len(_LOCATIONS)],
            )
        )
    for j, (seed, party) in enumerate(sorted(seed_map.items())):
        profiles.append(
            UserProfile(
                user_id=str(50 + j),
                screen_name=seed,
                followers_count=int(profile_rng.integers(100000, 5000000)),
                friends_count=int(profile_rng.integers(10, 500)),
                statuses_count=int(profile_rng.integers(1000, 20000)),
                following=frozenset(),
                location="India",
            )
        )

    annotations: list[Annotation] = []
    for name, party in users:
        true_pro = party
        true_anti = _OPPONENT[party]
        for a in range(_N_ANNOTATORS):
            pro, anti = true_pro, true_anti
            if annotate.random() < spec.annotator_noise:
                pro = _pick(annotate, [lab for lab in LABELS if lab != true_pro])
            if annotate.random() < spec.annotator_noise:
                anti = _pick(annotate, [lab for lab in LABELS if lab != true_anti])
            annotations.append(
                Annotation(
                    user_id=name,
                    annotator_id=f"annotator{a + 1}",
                    pro=pro,
                    anti=anti,
                )
            )

    return SyntheticCorpus(
        tweets=tuple(tweets),
        profiles=tuple(profiles),
        annotations=tuple(annotations),
        truth=dict(users),
    )


def write_synthetic(
    spec: SyntheticSpec,
    corpus_path: str | Path,
    annotations_path: str | Path,
) -> SyntheticCorpus:
    """Generate and write corpus JSONL plus annotations CSV."""
    data = generate_corpus(spec)
    write_corpus(corpus_path, data.tweets, data.profiles)
    write_annotations(annotations_path, data.annotations)
    return data


def planted_partition_graph(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng_seed: int = 0,
) -> tuple[InteractionGraph, dict[str, int]]:
    """Random graph with dense blocks and sparse cross-block edges.

    Returns the graph and the planted block id per node. Cross-block
    edges are drawn by binomial count then uniform placement, so large
    sparse graphs stay cheap to build.
    """
    if not block_sizes:
        raise SynthError("need at least one block")
    if any(size < 1 for size in block_sizes):
        raise SynthError("block sizes must be >= 1")
    _check_prob("p_in", p_in)
    _check_prob("p_out", p_out)

    n = sum(block_sizes)
    width = len(str(n - 1))
    names = [f"n{i:0{width}d}" for i in range(n)]

    starts: list[int] = []
    offset = 0
    membership: dict[str, int] = {}
    for b, size in enumerate(block_sizes):
        starts.append(offset)
        for i in range(offset, offset + size):
            membership[names[i]] = b
        offset += size

    rng = np.random.default_rng((rng_seed & _SEED_MASK, 7100))
    # edge keys head * n + tail per block pair; an id is a position in the
    # sorted names, and every pair is drawn once with head < tail
    keys: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]

    for b, size in enumerate(block_sizes):
        if size < 2:
            continue
        draws = rng.random((size, size))
        upper = np.triu_indices(size, k=1)
        hit = draws[upper] < p_in
        keys.append((starts[b] + upper[0][hit]) * n + starts[b] + upper[1][hit])

    if p_out > 0.0:
        for a in range(len(block_sizes)):
            for b in range(a + 1, len(block_sizes)):
                n_pairs = block_sizes[a] * block_sizes[b]
                k = int(rng.binomial(n_pairs, p_out))
                if k == 0:
                    continue
                i, j = np.divmod(rng.choice(n_pairs, size=k, replace=False),
                                 block_sizes[b])
                keys.append((starts[a] + i) * n + starts[b] + j)

    edges = np.sort(np.concatenate(keys))
    graph = InteractionGraph.from_keys(tuple(names), edges, np.ones(edges.size))
    return graph, membership
