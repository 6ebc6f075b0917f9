import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlbl import scoring
from rlbl.baselines import MarkovModel, PopModel
from rlbl.evaluation import evaluate, report_table
from rlbl.ingestion import SynthSpec, synth_corpus
from rlbl.model import NumericError, RlblParams, hidden_chain, init_rlbl_params, score_all_items
from rlbl.scoring import finite_scores, scorer_for, top_k_items
from rlbl.time_aware import init_ta_rlbl_params
from tests.test_model import make_seq, quarter_hour_seq, random_ta_params
from tests.test_time_aware import ta_case


def per_position_scores(params, h, user_id, behavior):
    """The per-position rule: V @ (M_b^T (h + u_u)), one position at a time."""
    return params.item_vecs @ (params.M[behavior].T @ (h + params.user_vecs[user_id]))


def rlbl_twin(ta):
    """RLBL parameters sharing a TA-RLBL model's tensors, C taken from its grid."""
    C = ta.grid.boundary_mats[np.arange(ta.n) % (ta.grid.n_bins + 1)]
    return RlblParams(ta.user_vecs, ta.item_vecs, ta.W, C, ta.M, ta.u0)


@settings(deadline=None, max_examples=150)
@given(ta_case(), st.integers(0, 2**32 - 1))
def test_score_positions_rows_equal_per_position_scores(case, seed):
    # gaps on bin boundaries, tied timestamps and gaps past the grid; the
    # positions come in any order and include the prediction position len(seq)
    ta, seq = case
    rng = np.random.default_rng(seed)
    ks = rng.permutation(len(seq) + 1)
    behaviors = rng.integers(ta.n_behaviors, size=len(ks))
    for params in (ta, rlbl_twin(ta)):
        block = scorer_for(params).score_positions(seq, ks, behaviors)
        assert block.shape == (len(ks), params.n_items)
        H = hidden_chain(params, seq, len(seq))
        for row, k, b in zip(block, ks, behaviors):
            assert np.array_equal(row, per_position_scores(params, H[k], seq.user_id, b))
            assert np.array_equal(row, score_all_items(params, H[k], seq.user_id, b))


def test_scorer_memo_extends_to_a_later_position():
    ta = random_ta_params(seed=4)
    seq = quarter_hour_seq(ta, 17, seed=5)
    rl = rlbl_twin(ta)
    scorer = scorer_for(rl)
    early = scorer.score_positions(seq, [0], [0])
    late = scorer.score_positions(seq, [len(seq), 0], [1, 0])
    H = hidden_chain(rl, seq, len(seq))
    assert np.array_equal(late[0], per_position_scores(rl, H[len(seq)], seq.user_id, 1))
    assert np.array_equal(late[1], early[0])


def test_a_reused_scorer_scores_another_corpus_afresh(monkeypatch):
    # both corpora have users 0-4: a chain memoized for corpus A's user u
    # must not score corpus B's user u
    a, b = (synth_corpus(SynthSpec(n_users=5, n_items=8, seq_len_range=(20, 20), rng_seed=s))
            for s in (1, 2))
    params = init_rlbl_params(5, max(a.n_items, b.n_items), 2, d=4, n=2, seed=6)
    scorer = scorer_for(params)
    evaluate(scorer, a)
    assert report_table(evaluate(scorer, b)) == report_table(evaluate(scorer_for(params), b))
    # the memo still serves a corpus scored before
    calls = []
    monkeypatch.setattr(scoring, "hidden_chain",
                        lambda *args: calls.append(args) or hidden_chain(*args))
    evaluate(scorer, b)
    assert calls == []


@pytest.mark.parametrize("kind", ["rlbl", "ta-rlbl", "pop", "markov"])
def test_no_positions_score_an_empty_block(kind):
    c = synth_corpus(SynthSpec(n_users=3, n_items=8, seq_len_range=(6, 6), rng_seed=3))
    dims = (c.n_users, c.n_items, c.n_behaviors)
    params = {"rlbl": lambda: init_rlbl_params(*dims, d=3, n=2, seed=5),
              "ta-rlbl": lambda: init_ta_rlbl_params(*dims, d=3, n=2, bin_width=3600.0,
                                                     n_bins=4, seed=5),
              "pop": lambda: PopModel(c), "markov": lambda: MarkovModel(c)}[kind]()
    block = scorer_for(params).score_positions(c.sequences[0], [], [])
    assert block.shape == (0, c.n_items)


class RowScorer:
    """Scores every position by the given rows, one per position."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def score_positions(self, seq, ks, behaviors):
        return self.rows[np.asarray(ks)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_scores_names_the_first_bad_position(bad):
    rows = np.zeros((6, 4))
    rows[[2, 4], 1] = bad
    seq = make_seq([0, 1, 2, 3, 0, 1], user_id=3)
    scorer = RowScorer(rows)
    assert finite_scores(scorer, seq, [0, 1, 3], [0, 0, 0]).shape == (3, 4)
    with pytest.raises(NumericError, match=r"user 3 at position 4$"):
        finite_scores(scorer, seq, [5, 4, 3, 2], [0, 0, 0, 0])


def test_top_k_items_ranks_one_row_with_ties_by_index():
    seq = make_seq([0, 1, 2])
    scorer = RowScorer([[0.0, 0.0, 0.0, 0.0]] * 3 + [[1.0, 3.0, 1.0, 2.0]])
    assert top_k_items(scorer, seq, 3, 0, 3) == [(1, 3.0), (3, 2.0), (0, 1.0)]
