"""A frozen copy of ``synth.generate_corpus`` from before it ran in linear time.

This reference rebuilds the author's party pool for every interaction
tweet and draws from it with ``_pick``, so its time grows with users x
tweets. The generator oracle in ``tests/test_synth.py`` runs the live
generator and this copy on the same specs: tweets, profiles, annotations
and truth must be equal, and ``write_synthetic`` must write the same
bytes. Do not edit the code below to follow the live module; it is the
fixed point the live module is checked against.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from polistance.annotation import LABELS, Annotation
from polistance.corpus import Tweet, UserProfile
from polistance.features import PARTIES, PartyLexicon, default_lexicon
from polistance.synth import SyntheticCorpus, SyntheticSpec

_SEED_MASK = (1 << 64) - 1

_CONTENT_STREAM = 7001
_INTERACT_STREAM = 7002
_ANNOTATE_STREAM = 7003
_PROFILE_STREAM = 7004

_EPOCH = datetime(2014, 4, 1, 0, 0, 0, tzinfo=timezone.utc)

_OWN_PARTY_SHARE = 0.55

_VOCAB_SKEW = 0.25

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

_OPPONENT = {"AAP": "BJP", "BJP": "AAP", "CONG": "BJP"}


def _party_vocab(lexicon: PartyLexicon) -> dict[str, tuple[str, ...]]:
    return {p: tuple(sorted(lexicon.terms(p).keywords)) for p in PARTIES}


def _party_tags(lexicon: PartyLexicon) -> dict[str, tuple[str, ...]]:
    return {p: tuple(sorted(lexicon.terms(p).hashtags)) for p in PARTIES}


def _pick(rng: np.random.Generator, pool: Sequence[str]) -> str:
    return pool[int(rng.integers(len(pool)))]


def _topic_party(rng: np.random.Generator, own: str) -> str:
    if rng.random() < _OWN_PARTY_SHARE:
        return own
    others = [p for p in PARTIES if p != own]
    return others[int(rng.integers(len(others)))]


def generate_corpus(spec: SyntheticSpec) -> SyntheticCorpus:
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
    members = {
        p: tuple(n for n, q in users if q == p) + seeds_of[p] for p in PARTIES
    }

    content = np.random.default_rng((spec.rng_seed & _SEED_MASK, _CONTENT_STREAM))
    interact = np.random.default_rng((spec.rng_seed & _SEED_MASK, _INTERACT_STREAM))
    profile_rng = np.random.default_rng((spec.rng_seed & _SEED_MASK, _PROFILE_STREAM))
    annotate = np.random.default_rng((spec.rng_seed & _SEED_MASK, _ANNOTATE_STREAM))

    tweets: list[Tweet] = []
    counter = 0
    for user_index, (name, party) in enumerate(users):
        for _ in range(spec.tweets_per_user):
            parts: list[str] = []
            mentions: list[str] = []
            retweet_of = None

            roll = interact.random()
            if roll < spec.p_intra + spec.p_cross:
                if roll < spec.p_intra:
                    pool = [m for m in members[party] if m != name]
                else:
                    pool = [
                        m for p in PARTIES if p != party for m in members[p]
                    ]
                target = _pick(interact, pool)
                if interact.random() < 0.5:
                    retweet_of = target
                    parts.append("rt")
                parts.append(f"@{target}")
                mentions.append(target)

            hashtags: list[str] = []
            for _ in range(8):
                if content.random() < _VOCAB_SKEW:
                    topic = _topic_party(content, party)
                    if content.random() < 0.25:
                        tag = _pick(content, tags[topic])
                        parts.append(f"#{tag}")
                        hashtags.append(tag)
                    else:
                        parts.append(_pick(content, words[topic]))
                else:
                    parts.append(_pick(content, _NEUTRAL_WORDS))
            if content.random() < 0.1:
                tag = _pick(content, _NEUTRAL_TAGS)
                parts.append(f"#{tag}")
                hashtags.append(tag)

            created = _EPOCH + timedelta(minutes=7 * counter)
            tweets.append(
                Tweet(
                    tweet_id=str(500000 + counter),
                    author_id=str(1000 + user_index),
                    author_screen_name=name,
                    created_at=created,
                    text=" ".join(parts),
                    hashtags=tuple(dict.fromkeys(hashtags)),
                    mentions=tuple(dict.fromkeys(mentions)),
                    retweet_of=retweet_of,
                )
            )
            counter += 1

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
