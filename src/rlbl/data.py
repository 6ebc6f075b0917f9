"""Events, user sequences, vocabularies and chronological splits.

An :class:`Event` is a raw (user, item, behavior, timestamp) record as it
comes out of a parser or generator. :func:`build_corpus` sorts events by
user, then time, in one stable sort (file order breaks timestamp ties),
re-indexes user and item ids densely in first-seen order, cuts each
sequence into train / validation / test segments and builds the corpus
with :meth:`Corpus.from_arrays`, the one constructor of user sequences.
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


class EmptyCorpus(ValueError):
    """Raised when no usable events remain after filtering."""


# A user needs at least this many events for a train/valid/test cut to be
# meaningful (one item per segment at minimum).
MIN_EVENTS_PER_USER = 3

# Behavior ids lie in [0, MAX_BEHAVIORS). They name behaviors in configs
# (behavior_map, target_behaviors), so they are bounded, not densified; the
# models hold one d x d matrix per id up to the largest. The paper's
# datasets have 4-9 behavior types.
MAX_BEHAVIORS = 1024


@dataclass(frozen=True)
class Event:
    """One behavioral record. User/item ids are raw (pre-densification)."""

    user: str
    item: str
    behavior: int
    timestamp: int


@dataclass
class UserSequence:
    """Chronologically ordered history of one user, as dense index arrays."""

    user_id: int
    items: np.ndarray       # int64, dense item indices
    behaviors: np.ndarray   # int64
    timestamps: np.ndarray  # int64, non-decreasing

    def __len__(self):
        return len(self.items)


class SequenceColumns(Sequence):
    """The users' sequences over flat event columns: user u's sequence holds
    views of ``offsets[u]:offsets[u + 1]`` and is built when it is first read,
    then kept, so that reading it twice gives the same object."""

    def __init__(self, offsets, items, behaviors, timestamps):
        self._columns = items, behaviors, timestamps
        self._bounds = offsets.tolist()
        self._built = [None] * (len(self._bounds) - 1)

    def __len__(self):
        return len(self._built)

    def __getitem__(self, u):
        u = range(len(self._built))[operator.index(u)]  # negative ids; IndexError past the end
        seq = self._built[u]
        if seq is None:
            lo, hi = self._bounds[u], self._bounds[u + 1]
            seq = self._built[u] = UserSequence(u, *(c[lo:hi] for c in self._columns))
        return seq


@dataclass
class BuildReport:
    n_events_in: int = 0
    n_users_dropped: int = 0
    n_events_dropped: int = 0


@dataclass
class Corpus:
    """Indexed user sequences with vocabularies and per-user split cuts.

    ``sequences`` holds user u's UserSequence at index u: a list, or the
    SequenceColumns of from_arrays, which builds a user's views on first
    access. ``train_end[u]`` / ``valid_end[u]`` are counts of events: the
    first ``train_end[u]`` events of user ``u`` are the training segment, the
    next ``valid_end[u] - train_end[u]`` the validation segment, the rest
    test. Immutable after construction.
    """

    sequences: Sequence
    n_users: int
    n_items: int
    n_behaviors: int
    train_end: np.ndarray
    valid_end: np.ndarray
    user_ids: list = field(default_factory=list)   # dense index -> raw id
    item_ids: list = field(default_factory=list)
    report: BuildReport = field(default_factory=BuildReport)

    @classmethod
    def from_arrays(cls, offsets, items, behaviors, timestamps, train_end, valid_end,
                    n_items, n_behaviors, user_ids, item_ids, report=None):
        """The corpus over flat int64 event arrays sorted by user, then time:
        user u's events are ``offsets[u]:offsets[u + 1]``, and its sequence
        holds views into the arrays (a Corpus is immutable). A sequence is
        built on first access, so a corpus costs one user until more are read."""
        sequences = SequenceColumns(offsets, items, behaviors, timestamps)
        return cls(sequences, len(sequences), n_items, n_behaviors, train_end, valid_end,
                   list(user_ids), list(item_ids), BuildReport() if report is None else report)


def build_corpus(events, split_fracs=(0.7, 0.1)):
    """Sort, densify and split a flat event list into a Corpus.

    Every event must have a timestamp >= 0 and a behavior id in
    [0, MAX_BEHAVIORS); timestamps and behaviors are read as int64. Users
    with fewer than MIN_EVENTS_PER_USER events are excluded and counted in
    the report. Split cuts fall at floor(len * f1) and floor(len * (f1 + f2)).
    """
    if len(split_fracs) != 2:
        raise ValueError(f"split must be exactly two fractions (train, validation): {split_fracs}")
    f1, f2 = split_fracs
    if not (0 < f1 < 1 and 0 < f2 < 1 and f1 + f2 < 1):
        raise ValueError(f"split fractions must lie in (0,1) and sum below 1: {split_fracs}")
    if not events:
        raise EmptyCorpus("no events")

    n = len(events)
    user_index: dict = {}
    users = np.fromiter((user_index.setdefault(ev.user, len(user_index)) for ev in events),
                        dtype=np.int64, count=n)
    timestamps = np.fromiter((ev.timestamp for ev in events), dtype=np.int64, count=n)
    behaviors = np.fromiter((ev.behavior for ev in events), dtype=np.int64, count=n)
    bad = np.flatnonzero((timestamps < 0) | (behaviors < 0) | (behaviors >= MAX_BEHAVIORS))
    if bad.size:
        raise ValueError(f"negative timestamp or behavior id outside [0, {MAX_BEHAVIORS}): "
                         f"{events[bad[0]]}")

    counts = np.bincount(users)
    kept = counts >= MIN_EVENTS_PER_USER
    if not kept.any():
        raise EmptyCorpus("all users have fewer than 3 events")
    report = BuildReport(n_events_in=n, n_users_dropped=int(np.count_nonzero(~kept)),
                         n_events_dropped=int(counts[~kept].sum()))
    # stable: file order breaks timestamp ties within a user
    order = np.lexsort((timestamps, users))
    order = order[kept[users[order]]]
    item_index: dict = {}
    items = np.fromiter((item_index.setdefault(events[j].item, len(item_index)) for j in order),
                        dtype=np.int64, count=len(order))

    behaviors = behaviors[order]
    lengths = counts[kept]
    # the epsilon keeps floor() faithful when f1 + f2 is not exactly
    # representable (0.7 + 0.1 = 0.7999...9 would shift the cut)
    return Corpus.from_arrays(
        np.concatenate(([0], np.cumsum(lengths))), items, behaviors, timestamps[order],
        np.floor(lengths * f1 + 1e-9).astype(np.int64),
        np.floor(lengths * (f1 + f2) + 1e-9).astype(np.int64),
        n_items=len(item_index), n_behaviors=int(behaviors.max()) + 1,
        user_ids=[u for u, keep in zip(user_index, kept.tolist()) if keep],
        item_ids=list(item_index), report=report)


def length_bucket(seq, thresholds):
    """Classify a sequence as 'short', 'medium' or 'long' by its length.

    Boundaries are inclusive on the left: len >= threshold enters the
    higher bucket.
    """
    t1, t2 = thresholds
    if not t1 < t2:
        raise ValueError(f"thresholds must be strictly increasing: {thresholds}")
    m = len(seq)
    if m < t1:
        return "short"
    if m < t2:
        return "medium"
    return "long"
