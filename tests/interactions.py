"""The interaction graph of a list of tweets, for tests that hold one.

``graph.build_interaction_graph`` takes an ``InteractionFold``, as a
network run does; this folds the tweets one at a time first.
"""

from polistance.graph import InteractionFold, build_interaction_graph


def graph_of(tweets, weighted=False):
    fold = InteractionFold()
    for tweet in tweets:
        fold.append(tweet)
    return build_interaction_graph(fold, weighted)
