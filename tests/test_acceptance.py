"""End-to-end acceptance gate.

Each test here states a contract the package must honor as a whole:
analytic gradients against a finite-difference oracle, closed-form
equivalences of the forward computation, metric arithmetic, learning
quality on planted-structure corpora, byte-level determinism, and
timestamp-shift invariance of the time-aware model. Tolerances and
budgets are part of the contract and must not be loosened.
"""

import os
import time

import numpy as np
import pytest

from rlbl.baselines import PopModel, linear_rnn_as_rlbl
from rlbl.data import Event, build_corpus
from rlbl.evaluation import (
    EvalConfig,
    evaluate,
    instance_metrics,
    rank_of_target,
    report_table,
)
from rlbl.ingestion import SynthSpec, generate_synthetic, synth_corpus
from rlbl.model import hidden_at, init_rlbl_params
from rlbl.scoring import scorer_for
from rlbl.snapshot import load_snapshot, save_snapshot
from rlbl.time_aware import init_ta_rlbl_params, interp_matrix
from rlbl.training import (
    TrainConfig,
    TrainingInstance,
    gradient_check,
    sample_negative,
    train,
)


def _timed(budget_s):
    """Context manager asserting the block stays under a wall-clock budget."""

    class _T:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget_s, (
                f"runtime budget exceeded: {self.elapsed:.1f}s >= {budget_s}s"
            )
            return False

    return _T()


def _interior_time_corpus(gap=1300, seq_len=14, n_users=3, n_items=12, seed=5):
    """Corpus whose nonzero in-window time differences avoid bin boundaries."""
    rng = np.random.default_rng(seed)
    events = []
    for u in range(n_users):
        t = 10_000
        for _ in range(seq_len):
            events.append(Event(user=f"u{u}", item=f"i{int(rng.integers(n_items))}",
                                behavior=int(rng.integers(3)), timestamp=t))
            t += gap
    return build_corpus(events)


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_gradient_oracle_all_models_and_dims():
    corpus = _interior_time_corpus()
    cfg = TrainConfig(lam=0.01)
    with _timed(30):
        for d, n in ((4, 2), (8, 3)):
            plain = init_rlbl_params(corpus.n_users, corpus.n_items,
                                     corpus.n_behaviors, d=d, n=n, seed=d)
            ta = init_ta_rlbl_params(corpus.n_users, corpus.n_items,
                                     corpus.n_behaviors, d=d, n=n,
                                     bin_width=3600.0, n_bins=6, seed=d)
            for params in (plain, ta):
                rng = np.random.default_rng(d)
                seq = corpus.sequences[0]
                for k in (2, 9):
                    inst = TrainingInstance(
                        user_id=0, position=k, behavior=int(seq.behaviors[k]),
                        pos_item=int(seq.items[k]),
                        neg_item=sample_negative(corpus.n_items,
                                                 int(seq.items[k]), rng),
                    )
                    report = gradient_check(params, seq, k, inst,
                                            step=1e-5, tolerance=1e-4,
                                            cfg=cfg, rng=rng)
                    assert report.passed, report.max_rel_error


# ---------------------------------------------------------------------------
# 2. equivalence identities


def test_window_one_identity_behavior_is_linear_recursion():
    corpus = synth_corpus(SynthSpec(n_users=10, n_items=20, n_behaviors=3,
                                    seq_len_range=(15, 25), rng_seed=2))
    rng = np.random.default_rng(0)
    with _timed(5):
        for _ in range(100):
            u = int(rng.integers(corpus.n_users))
            seq = corpus.sequences[u]
            k = int(rng.integers(1, len(seq) + 1))
            params = init_rlbl_params(corpus.n_users, corpus.n_items,
                                      corpus.n_behaviors, d=6, n=1,
                                      seed=int(rng.integers(1000)))
            params.M[:] = np.eye(6)
            # direct linear recursion h_j = W h_{j-1} + C_0 r_{v_j}
            h = params.u0
            for j in range(k):
                h = params.W @ h + params.C[0] @ params.item_vecs[seq.items[j]]
            got = hidden_at(params, seq, k).h
            assert np.array_equal(got, h)


def test_interpolation_worked_example_and_boundaries():
    with _timed(5):
        rng = np.random.default_rng(3)
        from rlbl.time_aware import TimeBinGrid

        grid = TimeBinGrid(bin_width=3600.0,
                           boundary_mats=rng.normal(size=(5, 4, 4)))
        # 1.6h sits 0.6 of the way through the [1h, 2h] bin
        expect = 0.4 * grid.boundary_mats[1] + 0.6 * grid.boundary_mats[2]
        got = interp_matrix(grid, 1.6 * 3600.0)
        assert np.max(np.abs(got - expect)) <= 1e-12
        for j in range(5):
            assert np.array_equal(interp_matrix(grid, j * 3600.0),
                                  grid.boundary_mats[j])


# ---------------------------------------------------------------------------
# 3. metric oracle


def test_aggregate_f1_consistency():
    with _timed(10):
        n, hits = 10_000, 354  # aggregate recall@5 = 0.0354
        ranks = [3] * hits + [80] * (n - hits)
        f1_sum = recall_sum = 0.0
        for r in ranks:
            recall, f1, _ = instance_metrics(r, (5,))
            recall_sum += recall[5]
            f1_sum += f1[5]
        assert abs(recall_sum / n - 0.0354) < 1e-12
        assert abs(f1_sum / n - 0.0118) < 5e-5


def test_rank_of_target_matches_full_sort():
    rng = np.random.default_rng(4)
    with _timed(10):
        for _ in range(10_000):
            scores = rng.normal(size=100)
            if rng.random() < 0.1:  # inject ties
                scores = np.round(scores, 1)
            t = int(rng.integers(100))
            order = sorted(range(100), key=lambda i: (-scores[i], i))
            assert rank_of_target(scores, t) == order.index(t) + 1


# ---------------------------------------------------------------------------
# 4. learning works end-to-end


def _markov_corpus(markov_strength, cycle_len, seed=7):
    return synth_corpus(SynthSpec(
        n_users=200, n_items=200, n_behaviors=3, seq_len_range=(60, 60),
        markov_strength=markov_strength, cycle_len=cycle_len, rng_seed=seed,
    ))


def test_trained_model_beats_pop_and_recovers_markov_structure():
    corpus = _markov_corpus(0.9, cycle_len=200)
    params = init_rlbl_params(corpus.n_users, corpus.n_items,
                              corpus.n_behaviors, d=8, n=3, seed=0)
    cfg = TrainConfig(lam=0.01, learning_rate=0.1, lr_decay=0.3,
                      negatives_per_positive=8, epochs=30, rng_seed=0)
    with _timed(600):
        train(params, corpus, cfg)
        model_report = evaluate(scorer_for(params), corpus)
        pop_report = evaluate(PopModel(corpus), corpus)
    assert model_report.recall[1] >= 0.5
    assert model_report.map >= 3.0 * pop_report.map


def test_deterministic_cycle_is_learned_nearly_perfectly():
    corpus = _markov_corpus(1.0, cycle_len=2)
    params = init_rlbl_params(corpus.n_users, corpus.n_items,
                              corpus.n_behaviors, d=8, n=3, seed=0)
    # NOTE: the step size matters here beyond speed. At lr 0.05 the model
    # settles into a parity-blind solution -- it ranks the user's two cycle
    # items on top but scores them in a fixed order, recall@1 exactly 0.5.
    # Resolving the alternation needs the window matrices to differentiate
    # (the target is always the item two steps back); lr 0.1 escapes the
    # symmetric basin reliably (recall@1 0.986 at epoch 30).
    cfg = TrainConfig(lam=0.01, learning_rate=0.1, lr_decay=0.2,
                      negatives_per_positive=8, epochs=30, rng_seed=0)
    with _timed(600):
        train(params, corpus, cfg)
        report = evaluate(scorer_for(params), corpus)
    assert report.recall[1] >= 0.95


# ---------------------------------------------------------------------------
# 5. multi-behavior benefit


def test_learned_behavior_matrices_beat_identity_on_flip_corpus():
    with _timed(900):
        wins = []
        for seed in (0, 1, 2):
            corpus = synth_corpus(SynthSpec(
                n_users=100, n_items=50, n_behaviors=2, seq_len_range=(60, 60),
                markov_strength=0.9, behavior_flip_prob=1.0, cycle_len=50,
                rng_seed=20 + seed,
            ))
            maps = {}
            for learned in (True, False):
                params = init_rlbl_params(corpus.n_users, corpus.n_items,
                                          corpus.n_behaviors, d=8, n=3,
                                          seed=seed)
                if not learned:
                    params.M[:] = np.eye(8)
                cfg = TrainConfig(lam=0.01, learning_rate=0.05, lr_decay=0.2,
                                  negatives_per_positive=8, epochs=15,
                                  rng_seed=seed, train_behavior_mats=learned)
                train(params, corpus, cfg)
                maps[learned] = evaluate(scorer_for(params), corpus).map
            wins.append(maps[True] >= 1.10 * maps[False])
        assert all(wins), wins


# ---------------------------------------------------------------------------
# 6. determinism


def test_training_and_evaluation_are_byte_deterministic(tmp_path):
    corpus = synth_corpus(SynthSpec(n_users=30, n_items=25, n_behaviors=2,
                                    seq_len_range=(15, 30), markov_strength=0.5,
                                    rng_seed=11))
    snaps, reports = [], []
    for run in range(2):
        params = init_rlbl_params(corpus.n_users, corpus.n_items,
                                  corpus.n_behaviors, d=6, n=2, seed=9)
        train(params, corpus, TrainConfig(lam=0.01, epochs=3, rng_seed=9))
        path = tmp_path / f"run{run}.snap"
        save_snapshot(path, params, corpus)
        snaps.append(path.read_bytes())
        reports.append(report_table(evaluate(scorer_for(params), corpus)))
    assert snaps[0] == snaps[1]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# 7. optional full-scale check (excluded from the default suite)


@pytest.mark.skipif("RLBL_MOVIELENS_PATH" not in os.environ,
                    reason="set RLBL_MOVIELENS_PATH to a ratings.dat to run "
                           "the hours-scale full-dataset check")
def test_full_dataset_beats_linear_rnn():
    from rlbl.ingestion import parse_movielens

    corpus = build_corpus(parse_movielens(os.environ["RLBL_MOVIELENS_PATH"]))
    cfg = TrainConfig(lam=0.01, learning_rate=0.05, epochs=10, rng_seed=0)
    eval_cfg = EvalConfig(cutoffs=(1, 5, 10), target_behaviors={3, 4})
    params = init_rlbl_params(corpus.n_users, corpus.n_items,
                              corpus.n_behaviors, d=8, n=6, seed=0)
    train(params, corpus, cfg)
    full = evaluate(scorer_for(params), corpus, eval_cfg)
    rnn = linear_rnn_as_rlbl(corpus, d=8, seed=0)
    train(rnn, corpus, cfg)
    base = evaluate(scorer_for(rnn), corpus, eval_cfg)
    assert full.map > base.map


# ---------------------------------------------------------------------------
# 8. time-shift invariance


def test_constant_timestamp_shift_is_invisible():
    spec = SynthSpec(n_users=20, n_items=15, n_behaviors=2,
                     seq_len_range=(15, 30), markov_strength=0.5, rng_seed=14)
    events = generate_synthetic(spec)
    shifted = [Event(ev.user, ev.item, ev.behavior, ev.timestamp + 86_400_000)
               for ev in events]
    c0, c1 = build_corpus(events), build_corpus(shifted)
    params = init_ta_rlbl_params(c0.n_users, c0.n_items, c0.n_behaviors,
                                 d=6, n=3, bin_width=3600.0, n_bins=8, seed=1)
    for u in range(c0.n_users):
        m = len(c0.sequences[u])
        for k in (1, m // 2, m):
            h0 = hidden_at(params, c0.sequences[u], k).h
            h1 = hidden_at(params, c1.sequences[u], k).h
            assert np.array_equal(h0, h1)
    r0 = report_table(evaluate(scorer_for(params), c0))
    r1 = report_table(evaluate(scorer_for(params), c1))
    assert r0 == r1
