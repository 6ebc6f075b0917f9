"""Scorer adapters plugging models into the shared evaluation interface.

A scorer exposes score_items(seq, k, behavior) -> (n_items,) array of
scores for the candidate item at position k+1. Model scorers memoize the
hidden-state chain per user; memoization is value-equal to the uncached
recursion and is only safe while parameters are not updated.
"""

import numpy as np

from rlbl.model import NumericError, hidden_chain, score_all_items
from rlbl.time_aware import TaRlblParams


class _ChainScorer:
    """Scorer for either model kind: the forward pass is shared."""

    def __init__(self, params):
        self.params = params
        self._chains = {}

    def score_items(self, seq, k, behavior):
        chain = self._chains.get(seq.user_id)
        if chain is None or chain.shape[0] <= k:
            chain = hidden_chain(self.params, seq, max(len(seq) - 1, k))
            self._chains[seq.user_id] = chain
        return score_all_items(self.params, chain[k], seq.user_id, behavior)


# perfbench/bench.py patches score_items on both names; as siblings (not one
# subclassing the other) each call is traced once.
class RlblScorer(_ChainScorer):
    """Scorer for RlblParams."""


class TaRlblScorer(_ChainScorer):
    """Scorer for TaRlblParams."""


def scorer_for(params):
    """Pick the matching scorer by parameter type; a model that scores items
    itself (POP, Markov) is its own scorer."""
    if hasattr(params, "score_items"):
        return params
    if isinstance(params, TaRlblParams):
        return TaRlblScorer(params)
    return RlblScorer(params)


def finite_scores(scorer, seq, k, behavior):
    """scorer.score_items as an array; NumericError if any score is not finite."""
    scores = np.asarray(scorer.score_items(seq, k, behavior))
    if not np.isfinite(scores).all():
        raise NumericError(f"non-finite score for user {seq.user_id} at position {k}")
    return scores


def top_k_items(scorer, seq, k, behavior, top_k):
    """Ranked (item, score) list for the next position, ties by index."""
    scores = finite_scores(scorer, seq, k, behavior)
    order = np.argsort(-scores, kind="stable")[:top_k]
    return [(int(i), float(scores[i])) for i in order]
