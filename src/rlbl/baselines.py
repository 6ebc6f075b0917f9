"""Reference predictors: popularity, first-order Markov chain, linear RNN.

All baselines plug into evaluation through the same score_positions
interface as the model scorers. The linear RNN is not a separate
implementation: it is an RLBL configuration with window width 1 and
identity behavior matrices, trained by the shared trainer.
"""

import numpy as np

from rlbl.model import RlblParams, init_rlbl_params


def _training_segments(corpus):
    return [seq.items[:end] for seq, end in zip(corpus.sequences, corpus.train_end)]


class PopModel:
    """Scores every item by its training-segment count, behavior-agnostic."""

    def __init__(self, corpus=None):
        self.item_counts = None
        if corpus is not None:
            self.fit(corpus)

    def fit(self, corpus):
        counts = np.bincount(np.concatenate(_training_segments(corpus)), minlength=corpus.n_items)
        if counts.sum() == 0:
            raise ValueError("empty training segment")
        self.item_counts = counts
        return self

    @property
    def n_items(self):
        return len(self.item_counts)

    def score_positions(self, seq, ks, behaviors):
        return np.tile(self.item_counts.astype(np.float64), (len(ks), 1))


class MarkovModel:
    """Row-normalized item-to-item transition frequencies over the training
    segments, with a popularity fallback for unseen previous items."""

    def __init__(self, corpus=None):
        self.transitions = None
        self.fallback = None
        self.row_observed = None
        if corpus is not None:
            self.fit(corpus)

    def fit(self, corpus):
        n = corpus.n_items
        counts = np.zeros((n, n), dtype=np.float64)
        for train in _training_segments(corpus):
            np.add.at(counts, (train[:-1], train[1:]), 1.0)
        row_sums = counts.sum(axis=1)
        self.row_observed = row_sums > 0
        self.transitions = np.divide(counts, row_sums[:, None], out=np.zeros_like(counts),
                                     where=self.row_observed[:, None])
        pop = PopModel(corpus).item_counts.astype(np.float64)
        self.fallback = pop / pop.sum()
        return self

    @property
    def n_items(self):
        return self.transitions.shape[0]

    def score_positions(self, seq, ks, behaviors):
        """Each row is the transition row of the item at position k, or the
        fallback at k = 0 and after an item with no training transition."""
        ks = np.asarray(ks, dtype=np.intp)
        prev = seq.items[np.maximum(ks - 1, 0)]
        known = (ks >= 1) & self.row_observed[prev]
        return np.where(known[:, None], self.transitions[prev], self.fallback)


def linear_rnn_as_rlbl(corpus, d, seed=0):
    """RLBL configuration equivalent to a linear RNN: n=1, identity M_b.

    Train it with train_behavior_mats=False to keep the behavior matrices
    at identity.
    """
    params = init_rlbl_params(
        corpus.n_users, corpus.n_items, corpus.n_behaviors, d=d, n=1, seed=seed
    )
    params.M = np.broadcast_to(np.eye(d), params.M.shape).copy()
    return params
