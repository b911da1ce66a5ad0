"""A frozen copy of the user-feature vectors from before they were folded.

``user_feature_vector`` here is the old function that took one author's
tweets and counted the lexicon hits in them, and ``vectors`` is the old
``pipeline.featurize("user-features", ...)`` that grouped the tweets by
author first. The property test in ``tests/test_features.py`` requires
``pipeline.ProfileFold`` to give the same vectors. The counting below is
deliberately the slow, obvious kind; do not speed it up.
"""

from __future__ import annotations

from polistance.corpus import tokenize
from polistance.features import PARTIES, FeatureError


def user_feature_vector(profile, tweets, lexicon):
    """The user's 11 features, in FEATURE_NAMES order."""
    for tweet in tweets:
        if tweet.author_screen_name != profile.screen_name:
            raise FeatureError(
                f"tweet {tweet.tweet_id} authored by {tweet.author_screen_name!r}, "
                f"not {profile.screen_name!r}"
            )

    tokens = []
    hashtags = []
    for tweet in tweets:
        tokens.extend(tokenize(tweet.text))
        hashtags.extend(tweet.hashtags)

    def word_count(party):
        keywords = lexicon.terms(party).keywords
        return sum(1 for token in tokens if token in keywords)

    def hashtag_count(party):
        tags = lexicon.terms(party).hashtags
        return sum(1 for tag in hashtags if tag in tags)

    def follows(party):
        return int(bool(profile.following & lexicon.terms(party).seed_accounts))

    return (
        profile.friends_count,
        profile.followers_count,
        *map(follows, PARTIES),
        *map(word_count, PARTIES),
        *map(hashtag_count, PARTIES),
    )


def vectors(tweets, profiles, lexicon):
    """One vector per profile, keyed by screen name in sorted order."""
    by_user = {}
    for tweet in tweets:
        by_user.setdefault(tweet.author_screen_name, []).append(tweet)
    return {
        profile.screen_name: user_feature_vector(
            profile, by_user.get(profile.screen_name, []), lexicon
        )
        for profile in sorted(profiles, key=lambda p: p.screen_name)
    }
