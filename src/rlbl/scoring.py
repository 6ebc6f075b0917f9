"""Scorer adapters plugging models into the shared evaluation interface.

A scorer exposes score_positions(seq, ks, behaviors) -> (len(ks), n_items)
array whose row j scores the candidate items at position ks[j]+1 under
behaviors[j]. The model scorer memoizes the hidden-state chain per user;
memoization is value-equal to the uncached recursion and is only safe
while parameters are not updated. A memoized chain serves only the same
sequence object, so one scorer can score several corpora in turn.
"""

import numpy as np

from rlbl.model import NumericError, hidden_chain, score_rows


class _ChainScorer:
    """Scorer for either model kind: the forward pass is shared."""

    def __init__(self, params):
        self.params = params
        self._chains = {}

    def score_positions(self, seq, ks, behaviors):
        memo, chain = self._chains.get(seq.user_id, (None, None))
        upto = int(np.max(ks, initial=len(seq) - 1))
        if memo is not seq or chain.shape[0] <= upto:
            chain = hidden_chain(self.params, seq, upto)
            self._chains[seq.user_id] = seq, chain
        return score_rows(self.params, chain[ks], seq.user_id, behaviors)


# the names perfbench/bench.py looks up
RlblScorer = TaRlblScorer = _ChainScorer


def scorer_for(params):
    """The scorer for a model; a baseline (POP, Markov) is its own scorer."""
    return params if hasattr(params, "score_positions") else _ChainScorer(params)


def finite_scores(scorer, seq, ks, behaviors):
    """scorer.score_positions as an array; NumericError naming the first
    position with a score that is not finite."""
    block = np.asarray(scorer.score_positions(seq, ks, behaviors))
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite score for user {seq.user_id} "
                           f"at position {ks[int(np.argmin(finite))]}")
    return block


def top_k_items(scorer, seq, k, behavior, top_k):
    """Ranked (item, score) list for the next position, ties by index."""
    scores = finite_scores(scorer, seq, [k], [behavior])[0]
    order = np.argsort(-scores, kind="stable")[:top_k]
    return [(int(i), float(scores[i])) for i in order]
