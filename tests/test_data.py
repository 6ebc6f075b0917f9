import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlbl.data import (
    MAX_BEHAVIORS,
    MIN_EVENTS_PER_USER,
    BuildReport,
    EmptyCorpus,
    Event,
    build_corpus,
    length_bucket,
)
from rlbl.model import init_rlbl_params
from rlbl.snapshot import load_snapshot, save_snapshot


def ev(user, item, behavior=0, ts=0):
    return Event(user=str(user), item=str(item), behavior=behavior, timestamp=ts)


def user_events(user, n, start_ts=0):
    return [ev(user, f"{user}-{j}", behavior=j % 2, ts=start_ts + j) for j in range(n)]


def test_split_cut_indices():
    corpus = build_corpus(user_events("a", 10), (0.7, 0.1))
    assert corpus.train_end[0] == 7
    assert corpus.valid_end[0] == 8


def test_sorted_by_timestamp():
    events = [ev("u", "a", ts=5), ev("u", "b", ts=3), ev("u", "c", ts=9)]
    corpus = build_corpus(events)
    seq = corpus.sequences[0]
    # chronological order b, a, c; dense ids assigned in that order
    assert [corpus.item_ids[i] for i in seq.items] == ["b", "a", "c"]
    assert list(seq.timestamps) == [3, 5, 9]


def test_timestamp_ties_keep_input_order():
    events = [ev("u", "x", ts=7), ev("u", "y", ts=7), ev("u", "z", ts=7)]
    corpus = build_corpus(events)
    assert [corpus.item_ids[i] for i in corpus.sequences[0].items] == ["x", "y", "z"]


def test_empty_input():
    with pytest.raises(EmptyCorpus):
        build_corpus([])


def test_short_users_dropped_and_counted():
    events = user_events("keep", 5) + [ev("drop", "q", ts=1), ev("drop", "r", ts=2)]
    corpus = build_corpus(events)
    assert corpus.n_users == 1
    assert corpus.report.n_users_dropped == 1
    assert corpus.report.n_events_dropped == 2


def test_all_users_too_short():
    with pytest.raises(EmptyCorpus):
        build_corpus([ev("u", "a"), ev("u", "b")])


def test_bad_fractions():
    with pytest.raises(ValueError):
        build_corpus(user_events("u", 5), (0.7, 0.4))


def test_dense_reindex_is_bijection():
    events = user_events("a", 6) + user_events("b", 6)
    corpus = build_corpus(events)
    assert len(set(corpus.item_ids)) == len(corpus.item_ids) == corpus.n_items
    assert len(set(corpus.user_ids)) == len(corpus.user_ids) == corpus.n_users
    seen = set()
    for seq in corpus.sequences:
        seen.update(int(i) for i in seq.items)
    assert seen == set(range(corpus.n_items))


def test_vocab_counts_are_max_index_plus_one():
    events = user_events("a", 6) + user_events("b", 8)
    corpus = build_corpus(events)
    max_item = max(int(s.items.max()) for s in corpus.sequences)
    max_beh = max(int(s.behaviors.max()) for s in corpus.sequences)
    assert corpus.n_items == max_item + 1
    assert corpus.n_behaviors == max_beh + 1


def test_behavior_ids_must_lie_below_the_cap():
    largest = build_corpus(user_events("a", 4) + [ev("a", "x", MAX_BEHAVIORS - 1, 9)])
    assert largest.n_behaviors == MAX_BEHAVIORS
    # an id past the cap used to size M by the largest id (10^12 ids: 29 TiB at d=2)
    for behavior in (MAX_BEHAVIORS, 10 ** 12):
        with pytest.raises(ValueError, match="behavior"):
            build_corpus(user_events("a", 4) + [ev("a", "x", behavior, 9)])


@pytest.mark.parametrize("bad", [ev("drop", "q", behavior=-1, ts=1), ev("drop", "q", ts=-1)])
def test_negative_value_of_a_dropped_user_raises(bad):
    # every event is checked, not only those of users who keep their events
    with pytest.raises(ValueError, match="negative"):
        build_corpus(user_events("keep", 5) + [bad])


def reference_build_corpus(events, split_fracs):
    """The per-user algorithm build_corpus replaced: group events in a dict of
    lists, argsort each user stably by timestamp, densify items event by event."""
    f1, f2 = split_fracs
    by_user = {}
    for e in events:
        by_user.setdefault(e.user, []).append(e)
    kept = [u for u, evs in by_user.items() if len(evs) >= MIN_EVENTS_PER_USER]
    dropped = [evs for evs in by_user.values() if len(evs) < MIN_EVENTS_PER_USER]
    if not kept:
        raise EmptyCorpus("all users have fewer than 3 events")
    item_index, sequences, n_behaviors = {}, [], 0
    for u in kept:
        evs = by_user[u]
        ts = np.array([e.timestamp for e in evs], dtype=np.int64)
        order = np.argsort(ts, kind="stable")
        items = [item_index.setdefault(evs[j].item, len(item_index)) for j in order]
        behaviors = [evs[j].behavior for j in order]
        n_behaviors = max([n_behaviors] + [b + 1 for b in behaviors])
        sequences.append((np.array(items, dtype=np.int64), np.array(behaviors, dtype=np.int64),
                          ts[order]))
    lengths = [len(by_user[u]) for u in kept]
    return dict(
        sequences=sequences, n_items=len(item_index), n_behaviors=n_behaviors,
        train_end=[int(np.floor(m * f1 + 1e-9)) for m in lengths],
        valid_end=[int(np.floor(m * (f1 + f2) + 1e-9)) for m in lengths],
        user_ids=kept, item_ids=list(item_index),
        report=BuildReport(len(events), len(dropped), sum(len(evs) for evs in dropped)))


# few users and items, so that users share items and some fall below 3 events;
# few timestamps, so that ties are common; behavior ids with gaps
EVENTS = st.lists(st.builds(
    Event, user=st.sampled_from("abcde"), item=st.sampled_from("pqrstuvw"),
    behavior=st.sampled_from([0, 2, 3, 7, MAX_BEHAVIORS - 1]),
    timestamp=st.one_of(st.integers(0, 4), st.integers(0, 2 ** 63 - 1))), max_size=40)


@settings(max_examples=300, deadline=None)
@given(events=EVENTS,
       split=st.sampled_from([(0.7, 0.1), (0.5, 0.25), (0.34, 0.33), (0.1, 0.8)]))
def test_build_corpus_matches_per_user_reference(events, split):
    try:
        want = reference_build_corpus(events, split)
    except EmptyCorpus:
        with pytest.raises(EmptyCorpus):
            build_corpus(events, split)
        return
    c = build_corpus(events, split)
    assert (c.n_users, c.n_items, c.n_behaviors, c.user_ids, c.item_ids, c.report) == (
        len(want["user_ids"]), want["n_items"], want["n_behaviors"], want["user_ids"],
        want["item_ids"], want["report"])
    for name in ("train_end", "valid_end"):
        got = getattr(c, name)
        assert got.dtype == np.int64 and got.tolist() == want[name]
    assert len(c.sequences) == len(want["sequences"])
    for u, (seq, arrays) in enumerate(zip(c.sequences, want["sequences"])):
        assert seq.user_id == u
        for got, expected in zip((seq.items, seq.behaviors, seq.timestamps), arrays):
            assert got.dtype == np.int64 and np.array_equal(got, expected)


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_sequences_are_built_once_and_index_like_a_list(tmp_path, source):
    events = [ev(f"u{u}", f"i{(u * t) % 7}", behavior=t % 3, ts=t)
              for u, length in enumerate((5, 12, 3, 8)) for t in range(length)]
    corpus = build_corpus(events)
    if source == "loaded":
        save_snapshot(tmp_path / "m.snap", init_rlbl_params(
            corpus.n_users, corpus.n_items, corpus.n_behaviors, d=2, n=2), corpus)
        corpus = load_snapshot(tmp_path / "m.snap")[2]
    want = reference_build_corpus(events, (0.7, 0.1))["sequences"]
    seqs = corpus.sequences

    def same(seq, u):
        return seq.user_id == u and all(np.array_equal(got, expected) for got, expected in zip(
            (seq.items, seq.behaviors, seq.timestamps), want[u]))

    assert len(seqs) == len(want) == corpus.n_users
    assert seqs[np.int64(1)] is seqs[1] is seqs[-3] and same(seqs[1], 1)
    assert seqs[-1] is seqs[3] and same(seqs[-1], 3)
    listed = list(seqs)
    assert len(listed) == len(want) and all(same(seq, u) for u, seq in enumerate(listed))
    assert all(seqs[u] is seq for u, seq in enumerate(seqs))
    for u in (4, -5):
        with pytest.raises(IndexError):
            seqs[u]


def test_segments_partition_sequence():
    corpus = build_corpus(user_events("a", 13), (0.7, 0.1))
    t, v = int(corpus.train_end[0]), int(corpus.valid_end[0])
    assert 0 <= t <= v <= len(corpus.sequences[0])


class FakeSeq:
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


@pytest.mark.parametrize("length,thresholds,expected", [
    (49, (50, 200), "short"),
    (50, (50, 200), "medium"),
    (199, (50, 200), "medium"),
    (200, (50, 200), "long"),
    (500, (100, 500), "long"),
])
def test_length_bucket(length, thresholds, expected):
    assert length_bucket(FakeSeq(length), thresholds) == expected


def test_length_bucket_bad_thresholds():
    with pytest.raises(ValueError):
        length_bucket(FakeSeq(5), (200, 50))
