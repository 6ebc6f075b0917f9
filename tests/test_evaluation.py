import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlbl.data import Event, build_corpus, length_bucket
from rlbl.evaluation import (
    EmptyEval,
    EvalConfig,
    RankingReport,
    eval_positions,
    evaluate,
    instance_metrics,
    rank_of_target,
    ranks_of_targets,
    report_rows,
    report_table,
)
from rlbl.model import NumericError, hidden_chain
from rlbl.scoring import scorer_for
from tests.test_model import random_params


def sort_oracle_rank(scores, target):
    """Rank via an explicit stable sort on (-score, index)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(target) + 1


def test_rank_matches_sort_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        scores = rng.normal(size=50)
        t = int(rng.integers(50))
        assert rank_of_target(scores, t) == sort_oracle_rank(list(scores), t)


def test_rank_matches_sort_oracle_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(200):
        scores = rng.integers(0, 4, size=30).astype(float)
        t = int(rng.integers(30))
        assert rank_of_target(scores, t) == sort_oracle_rank(list(scores), t)


# a few repeated values force ties; the infinities sit at both ends
SCORE = st.one_of(st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 2.5, math.inf]),
                  st.floats(allow_nan=False))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.lists(SCORE, min_size=n, max_size=n), min_size=1, max_size=6)), st.data())
def test_rank_is_position_in_stable_argsort(values, data):
    rows = np.array(values)
    targets = data.draw(st.lists(st.integers(0, rows.shape[1] - 1),
                                 min_size=len(rows), max_size=len(rows)))
    ranks = ranks_of_targets(rows, targets)
    for scores, target, rank in zip(rows, targets, ranks):
        order = np.argsort(-scores, kind="stable")
        expected = int(np.flatnonzero(order == target)[0]) + 1
        assert rank_of_target(scores, target) == expected
        assert rank == expected


def test_rank_large_vector():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=10_000)
    t = int(np.argmax(scores))
    assert rank_of_target(scores, t) == 1
    t = int(np.argmin(scores))
    assert rank_of_target(scores, t) == 10_000


def test_rank_all_tied_breaks_by_index():
    scores = np.ones(10)
    for t in range(10):
        assert rank_of_target(scores, t) == t + 1


def test_instance_metrics_rank_two():
    recall, f1, ap = instance_metrics(2, (1, 2, 5))
    assert recall == {1: 0.0, 2: 1.0, 5: 1.0}
    assert f1[2] == pytest.approx(2.0 / 3.0)
    assert f1[5] == pytest.approx(1.0 / 3.0)
    assert ap == pytest.approx(0.5)


def test_f1_at_1_equals_recall_at_1():
    for rank in (1, 2, 7):
        recall, f1, _ = instance_metrics(rank, (1,))
        assert f1[1] == recall[1]


def test_instance_metrics_bad_rank():
    for rank in (0, -3, 0.5, math.nan):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            instance_metrics(rank, (1,))


class FixedScorer:
    """Scores every item by a fixed static vector."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def score_positions(self, seq, ks, behaviors):
        return np.tile(self.scores, (len(ks), 1))


class RandomScorer:
    def __init__(self, n_items, seed=0):
        self.n_items = n_items
        self.rng = np.random.default_rng(seed)

    def score_positions(self, seq, ks, behaviors):
        return self.rng.normal(size=(len(ks), self.n_items))


def grid_corpus(n_users=8, n_items=20, length=30, n_behaviors=2, seed=0):
    rng = np.random.default_rng(seed)
    events = []
    for u in range(n_users):
        for t in range(length):
            events.append(Event(f"u{u}", f"i{rng.integers(n_items)}",
                                int(rng.integers(n_behaviors)), t))
    return build_corpus(events)


def test_random_scorer_map_matches_harmonic_expectation():
    # uniform-random ranks over m items give E[AP] = H(m)/m
    c = grid_corpus(n_users=40, n_items=100, length=60, seed=3)
    rep = evaluate(RandomScorer(c.n_items, seed=4), c)
    m = c.n_items
    expect = sum(1.0 / r for r in range(1, m + 1)) / m  # ~0.0519 for m=100
    assert rep.map == pytest.approx(expect, abs=0.01)
    assert rep.recall[1] == pytest.approx(1.0 / m, abs=0.02)


def test_monotone_transform_leaves_report_unchanged():
    c = grid_corpus(seed=5)
    base = np.random.default_rng(6).normal(size=c.n_items)
    r1 = evaluate(FixedScorer(base), c)
    r2 = evaluate(FixedScorer(3.0 * base + 7.0), c)
    assert r1.recall == r2.recall and r1.map == r2.map


def test_perfect_scorer_gets_everything_right():
    c = grid_corpus(seed=7)

    class Oracle:
        def score_positions(self, seq, ks, behaviors):
            s = np.zeros((len(ks), c.n_items))
            s[np.arange(len(ks)), seq.items[ks]] = 1.0
            return s

    rep = evaluate(Oracle(), c)
    assert rep.map == 1.0
    assert all(v == 1.0 for v in rep.recall.values())
    for k in rep.f1:
        assert rep.f1[k] == pytest.approx(2.0 / (k + 1))


def test_eval_positions_segments_are_disjoint_and_cover_tail():
    c = grid_corpus(seed=8)
    test_pos = set(eval_positions(c, 0, EvalConfig(segment="test")))
    valid_pos = set(eval_positions(c, 0, EvalConfig(segment="valid")))
    assert not test_pos & valid_pos
    assert min(test_pos) == int(c.valid_end[0])
    assert max(test_pos) == len(c.sequences[0]) - 1
    assert min(valid_pos) == int(c.train_end[0])


def test_behavior_filter():
    c = grid_corpus(seed=9)
    cfg = EvalConfig(target_behaviors={1})
    seq = c.sequences[0]
    for k in eval_positions(c, 0, cfg):
        assert int(seq.behaviors[k]) == 1


def test_behavior_filter_empty_raises():
    c = grid_corpus(seed=10)
    with pytest.raises(EmptyEval):
        evaluate(FixedScorer(np.zeros(c.n_items)), c, EvalConfig(target_behaviors={99}))


def test_instance_count():
    c = grid_corpus(seed=11)
    rep = evaluate(FixedScorer(np.zeros(c.n_items)), c)
    expected = sum(len(s) - int(c.valid_end[u]) for u, s in enumerate(c.sequences))
    assert rep.n_instances == expected


def test_buckets_partition_instances():
    events = []
    for u, length in enumerate((20, 80, 300)):
        for t in range(length):
            events.append(Event(f"u{u}", f"i{t % 15}", 0, t))
    c = build_corpus(events)
    rep = evaluate(FixedScorer(np.zeros(c.n_items)), c)
    assert set(rep.buckets) == {"short", "medium", "long"}
    assert sum(b.n_instances for b in rep.buckets.values()) == rep.n_instances


def test_exclude_seen_keeps_target():
    # the target is always scoreable even when it occurred in the history
    c = grid_corpus(n_items=5, seed=12)
    rng = np.random.default_rng(13)
    r1 = evaluate(RandomScorer(c.n_items, seed=14), c, EvalConfig(exclude_seen=True))
    assert rng is not None and math.isfinite(r1.map) and r1.n_instances > 0


def test_exclude_seen_boosts_repeat_heavy_targets():
    # with a tiny vocabulary nearly everything is seen, so excluding seen
    # items forces the target toward rank 1
    events = [Event("u", f"i{t % 3}", 0, t) for t in range(30)]
    c = build_corpus(events)
    base = np.random.default_rng(15).normal(size=c.n_items)
    rep = evaluate(FixedScorer(base), c, EvalConfig(exclude_seen=True))
    assert rep.recall[1] == 1.0


def test_report_table_is_bit_stable_and_parseable():
    c = grid_corpus(seed=16)
    rep = evaluate(FixedScorer(np.arange(c.n_items, dtype=float)), c)
    t1, t2 = report_table(rep), report_table(rep)
    assert t1 == t2
    lines = t1.strip().split("\n")
    assert lines[0] == "metric\tcutoff\tbucket\tvalue"
    parsed = [ln.split("\t") for ln in lines[1:]]
    for metric, cutoff, bucket, value in parsed:
        if metric in ("recall", "f1", "map"):
            assert 0.0 <= float(value) <= 1.0
    names = {m for m, _, _, _ in parsed}
    assert names == {"recall", "f1", "map", "n_instances"}


def test_report_rows_roundtrip_values():
    c = grid_corpus(seed=17)
    rep = evaluate(FixedScorer(np.zeros(c.n_items)), c)
    rows = {(m, k, b): v for m, k, b, v in report_rows(rep)}
    assert rows[("map", "", "all")] == rep.map
    for k in rep.recall:
        assert rows[("recall", k, "all")] == rep.recall[k]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("exclude_seen", [False, True])
def test_nonfinite_scores_raise(bad, exclude_seen):
    # a NaN target would otherwise rank first; the check runs on the
    # scorer's own rows, before exclude_seen writes its -inf entries
    c = grid_corpus(seed=18)
    base = np.arange(c.n_items, dtype=float)
    first_bad = int(c.valid_end[2]) + 3  # user 2's fourth test position and every later one

    class LateBadScorer:
        def score_positions(self, seq, ks, behaviors):
            rows = np.tile(base, (len(ks), 1))
            if seq.user_id >= 2:
                rows[np.asarray(ks) >= first_bad, 1] = bad
            return rows

    with pytest.raises(NumericError, match=f"user 2 at position {first_bad}$"):
        evaluate(LateBadScorer(), c, EvalConfig(exclude_seen=exclude_seen))


def per_position_table(params, corpus, config):
    """report_table of the per-position loop: one score vector, one
    exclude_seen copy and one sort-based rank per test position."""
    instances, by_bucket = [], {}
    for u, seq in enumerate(corpus.sequences):
        H = hidden_chain(params, seq, len(seq) - 1)
        for k in eval_positions(corpus, u, config):
            b, target = int(seq.behaviors[k]), int(seq.items[k])
            scores = params.item_vecs @ (params.M[b].T @ (H[k] + params.user_vecs[u]))
            if config.exclude_seen:
                keep = scores[target]
                scores[np.unique(seq.items[:k])] = -np.inf
                scores[target] = keep
            order = np.argsort(-scores, kind="stable")
            rank = int(np.flatnonzero(order == target)[0]) + 1
            metrics = instance_metrics(rank, config.cutoffs)
            instances.append(metrics)
            by_bucket.setdefault(length_bucket(seq, config.bucket_thresholds), []).append(metrics)

    def aggregate(group):
        n = len(group)
        return RankingReport(
            recall={k: math.fsum(r[k] for r, _, _ in group) / n for k in config.cutoffs},
            f1={k: math.fsum(f[k] for _, f, _ in group) / n for k in config.cutoffs},
            map=math.fsum(a for _, _, a in group) / n, n_instances=n)

    report = aggregate(instances)
    for bucket in ("short", "medium", "long"):
        if bucket in by_bucket:
            report.buckets[bucket] = aggregate(by_bucket[bucket])
    return report_table(report)


@pytest.mark.parametrize("segment", ["valid", "test"])
@pytest.mark.parametrize("target_behaviors", [None, {1}])
def test_batched_evaluate_matches_the_per_position_loop(segment, target_behaviors):
    # a small vocabulary makes most targets repeats, so exclude_seen masks a lot
    events = [Event(f"u{u}", f"i{(t * (u + 1)) % 9 if t % 4 else 9 + t % 7}", t % 3 % 2, t)
              for u, length in enumerate((20, 60, 230, 35)) for t in range(length)]
    c = build_corpus(events)
    params = random_params(n_users=c.n_users, n_items=c.n_items, n_behaviors=c.n_behaviors, seed=19)
    for exclude_seen in (False, True):
        config = EvalConfig(segment=segment, target_behaviors=target_behaviors,
                            exclude_seen=exclude_seen)
        assert (report_table(evaluate(scorer_for(params), c, config))
                == per_position_table(params, c, config))


@pytest.mark.parametrize("segment", ["valid", "test"])
def test_report_does_not_depend_on_user_order(segment):
    # every mean divides an exact sum, so users may be regrouped (by length,
    # say) without changing a bit of the report
    events = [Event(f"u{u}", f"i{(t * (u + 2)) % 11 if t % 3 else 11 + t % 5}", t % 2, t)
              for u, length in enumerate((20, 260, 45, 90, 230, 35, 120)) for t in range(length)]
    c = build_corpus(events)
    perm = np.random.default_rng(20).permutation(c.n_users)
    assert list(perm) != sorted(perm)
    shuffled = dataclasses.replace(
        c, sequences=[c.sequences[u] for u in perm], train_end=c.train_end[perm],
        valid_end=c.valid_end[perm], user_ids=[c.user_ids[u] for u in perm])
    params = random_params(n_users=c.n_users, n_items=c.n_items, n_behaviors=c.n_behaviors, seed=21)
    for exclude_seen in (False, True):
        config = EvalConfig(segment=segment, exclude_seen=exclude_seen)
        report = evaluate(scorer_for(params), c, config)
        assert set(report.buckets) == {"short", "medium", "long"}
        assert report_table(evaluate(scorer_for(params), shuffled, config)) == report_table(report)


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(cutoffs=(5, 1))
    with pytest.raises(ValueError):
        EvalConfig(cutoffs=())
    with pytest.raises(ValueError):
        EvalConfig(cutoffs=(0, 1))
    with pytest.raises(ValueError, match="segment"):
        EvalConfig(segment="tset")
    # cutoffs are strictly increasing positive integers; a bool is none
    for cutoffs in ((1, math.nan), (1, 1, 5), (1, 2.5), (True, 2), (1.0, 2), (1, None)):
        with pytest.raises(ValueError, match="cutoffs must be strictly increasing positive"):
            EvalConfig(cutoffs=cutoffs)
    # and the two bucket thresholds strictly increasing real numbers
    for thresholds in ((None, 5), (math.nan, 5), (5, 5), (False, 5), (1, 5, 9), ("1", 5)):
        with pytest.raises(ValueError, match="bucket thresholds"):
            EvalConfig(bucket_thresholds=thresholds)
    # numpy scalars pass
    EvalConfig(cutoffs=(np.int64(1), np.int32(5)), bucket_thresholds=(np.float64(2.5), 9))
