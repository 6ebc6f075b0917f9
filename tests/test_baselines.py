import numpy as np
import pytest

from rlbl.baselines import MarkovModel, PopModel, linear_rnn_as_rlbl
from rlbl.data import Event, build_corpus
from rlbl.evaluation import evaluate
from rlbl.scoring import scorer_for


def corpus_from_item_lists(user_items, behaviors=None):
    events = []
    for u, items in enumerate(user_items):
        for t, it in enumerate(items):
            b = behaviors[u][t] if behaviors else 0
            events.append(Event(f"u{u}", str(it), b, t))
    return build_corpus(events)


def test_pop_counts_training_segment_only():
    # 10 events -> train_end 7; the tail items must not be counted
    c = corpus_from_item_lists([["a", "a", "a", "b", "b", "c", "d", "tail", "tail", "tail"]])
    pop = PopModel(c)
    counts = {c.item_ids[i]: int(pop.item_counts[i]) for i in range(c.n_items)}
    assert counts == {"a": 3, "b": 2, "c": 1, "d": 1, "tail": 0}


def test_scorer_for_returns_a_baseline_unchanged():
    c = corpus_from_item_lists([["a", "b", "a", "c", "b"]])
    for baseline in (PopModel(c), MarkovModel(c)):
        assert scorer_for(baseline) is baseline


def test_pop_scores_are_counts_everywhere():
    c = corpus_from_item_lists([["a", "b", "a", "c", "a", "b", "d", "e", "f", "g"]])
    pop = PopModel(c)
    s = pop.score_positions(c.sequences[0], [5], [0])
    assert np.array_equal(s, pop.item_counts.astype(float)[None])


def test_pop_is_behavior_and_position_agnostic():
    c = corpus_from_item_lists([["a", "b", "c", "d", "e"]])
    pop = PopModel(c)
    seq = c.sequences[0]
    s = pop.score_positions(seq, [1, 4], [0, 7])
    assert np.array_equal(s[0], s[1])


def test_markov_rows_are_normalized_frequencies():
    # training prefix: a b a b a c (train_end = floor(8*0.7) = 5 -> a b a b a)
    c = corpus_from_item_lists([["a", "b", "a", "b", "a", "c", "d", "e"]])
    mk = MarkovModel(c)
    ia, ib = c.item_ids.index("a"), c.item_ids.index("b")
    # transitions within the training prefix: a->b, b->a, a->b, b->a
    assert mk.transitions[ia, ib] == pytest.approx(1.0)
    assert mk.transitions[ib, ia] == pytest.approx(1.0)
    observed = mk.transitions[mk.row_observed]
    assert np.allclose(observed.sum(axis=1), 1.0)


def test_markov_fallback_for_unseen_rows():
    c = corpus_from_item_lists([["a", "b", "a", "b", "a", "c", "d", "e"]])
    mk = MarkovModel(c)
    idx_unseen = c.item_ids.index("e")
    assert not mk.row_observed[idx_unseen]
    seq = c.sequences[0]
    scores = mk.score_positions(seq, [7], [0])[0]  # previous item is "e", unseen in training
    assert np.array_equal(scores, mk.fallback)
    assert scores.sum() == pytest.approx(1.0)


def test_fits_match_per_event_counts():
    rng = np.random.default_rng(4)
    c = corpus_from_item_lists([[f"i{rng.integers(9)}" for _ in range(rng.integers(3, 15))]
                                for _ in range(8)])
    counts, pairs = np.zeros(c.n_items), np.zeros((c.n_items, c.n_items))
    for seq, end in zip(c.sequences, c.train_end):
        for j in range(end):
            counts[seq.items[j]] += 1
            if j:
                pairs[seq.items[j - 1], seq.items[j]] += 1
    assert np.array_equal(PopModel(c).item_counts, counts)
    mk = MarkovModel(c)
    rows = pairs.sum(axis=1) > 0
    assert np.array_equal(mk.row_observed, rows)
    assert np.array_equal(mk.transitions[rows], pairs[rows] / pairs[rows].sum(axis=1)[:, None])
    assert not mk.transitions[~rows].any()
    assert np.array_equal(mk.fallback, counts / counts.sum())


def per_position_pop(pop, seq, k, behavior):
    """The per-position POP rule: training counts, wherever and however."""
    return pop.item_counts.astype(np.float64)


def per_position_markov(mk, seq, k, behavior):
    """The per-position Markov rule: the previous item's transition row, or
    the fallback at k = 0 and after an item with no training transition."""
    prev = int(seq.items[k - 1]) if k >= 1 else None
    if prev is None or not mk.row_observed[prev]:
        return mk.fallback.copy()
    return mk.transitions[prev].copy()


def test_baseline_rows_follow_the_per_position_rules():
    # "e" and "f" occur only after the training segment, so their rows are unseen
    c = corpus_from_item_lists([list("abacbacbabeafc"), list("cabcafe")],
                               behaviors=[[t % 2 for t in range(14)], [1] * 7])
    for model, rule in ((PopModel(c), per_position_pop), (MarkovModel(c), per_position_markov)):
        for seq in c.sequences:
            ks = np.arange(len(seq), -1, -1)  # down to k = 0, which has no previous item
            behaviors = np.resize(seq.behaviors, len(ks))
            block = model.score_positions(seq, ks, behaviors)
            assert block.shape == (len(ks), c.n_items)
            for row, k, b in zip(block, ks, behaviors):
                assert np.array_equal(row, rule(model, seq, k, b))
    mk = MarkovModel(c)
    assert not mk.row_observed[c.item_ids.index("e")] and not mk.row_observed[c.item_ids.index("f")]


def test_markov_beats_pop_on_deterministic_chain():
    rng = np.random.default_rng(0)
    perm = rng.permutation(12)
    lists = []
    for u in range(10):
        it = int(rng.integers(12))
        row = []
        for _ in range(30):
            row.append(f"i{it}")
            it = int(perm[it])
        lists.append(row)
    c = corpus_from_item_lists(lists)
    r_mk = evaluate(MarkovModel(c), c)
    r_pop = evaluate(PopModel(c), c)
    assert r_mk.recall[1] == 1.0
    assert r_mk.map > 2 * r_pop.map


def test_linear_rnn_config_shape():
    c = corpus_from_item_lists([[f"i{j}" for j in range(10)]] * 3)
    p = linear_rnn_as_rlbl(c, d=6, seed=1)
    assert p.n == 1
    assert p.C.shape == (1, 6, 6)
    for b in range(p.n_behaviors):
        assert np.array_equal(p.M[b], np.eye(6))


def test_linear_rnn_trains_with_frozen_behavior_mats():
    from rlbl.training import TrainConfig, train

    rng = np.random.default_rng(2)
    lists = [[f"i{rng.integers(8)}" for _ in range(12)] for _ in range(4)]
    c = corpus_from_item_lists(lists)
    p = linear_rnn_as_rlbl(c, d=4, seed=2)
    train(p, c, TrainConfig(learning_rate=0.05, epochs=2, train_behavior_mats=False))
    for b in range(p.n_behaviors):
        assert np.array_equal(p.M[b], np.eye(4))


def test_pop_empty_training_rejected():
    c = corpus_from_item_lists([["a", "b", "c"]])
    c.train_end[0] = 0
    with pytest.raises(ValueError):
        PopModel(c)
