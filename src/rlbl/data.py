"""Events, user sequences, vocabularies and chronological splits.

An :class:`Event` is a raw (user, item, behavior, timestamp) record as it
comes out of a parser or generator; :func:`build_corpus` groups events per
user, sorts them chronologically (stable, so file order breaks timestamp
ties), re-indexes user and item ids densely in first-seen order, and cuts
each sequence into train / validation / test segments.
"""

from dataclasses import dataclass, field

import numpy as np


class EmptyCorpus(ValueError):
    """Raised when no usable events remain after filtering."""


# A user needs at least this many events for a train/valid/test cut to be
# meaningful (one item per segment at minimum).
MIN_EVENTS_PER_USER = 3


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


@dataclass
class BuildReport:
    n_events_in: int = 0
    n_users_dropped: int = 0
    n_events_dropped: int = 0


@dataclass
class Corpus:
    """Indexed user sequences with vocabularies and per-user split cuts.

    ``train_end[u]`` / ``valid_end[u]`` are counts of events: the first
    ``train_end[u]`` events of user ``u`` are the training segment, the next
    ``valid_end[u] - train_end[u]`` the validation segment, the rest test.
    Immutable after construction.
    """

    sequences: list
    n_users: int
    n_items: int
    n_behaviors: int
    train_end: np.ndarray
    valid_end: np.ndarray
    user_ids: list = field(default_factory=list)   # dense index -> raw id
    item_ids: list = field(default_factory=list)
    report: BuildReport = field(default_factory=BuildReport)


def build_corpus(events, split_fracs=(0.7, 0.1)):
    """Group, sort, densify and split a flat event list into a Corpus.

    Users with fewer than MIN_EVENTS_PER_USER events are excluded and
    counted in the report. Split cuts fall at floor(len * f1) and
    floor(len * (f1 + f2)).
    """
    f1, f2 = split_fracs
    if not (0 < f1 < 1 and 0 < f2 < 1 and f1 + f2 < 1):
        raise ValueError(f"split fractions must lie in (0,1) and sum below 1: {split_fracs}")
    if not events:
        raise EmptyCorpus("no events")

    report = BuildReport(n_events_in=len(events))

    by_user: dict = {}
    for ev in events:
        if ev.timestamp < 0:
            raise ValueError(f"negative timestamp: {ev}")
        by_user.setdefault(ev.user, []).append(ev)

    kept_users = []
    for raw_uid, evs in by_user.items():
        if len(evs) < MIN_EVENTS_PER_USER:
            report.n_users_dropped += 1
            report.n_events_dropped += len(evs)
        else:
            kept_users.append(raw_uid)
    if not kept_users:
        raise EmptyCorpus("all users have fewer than 3 events")

    item_index: dict = {}
    item_ids: list = []
    sequences = []
    train_end = np.zeros(len(kept_users), dtype=np.int64)
    valid_end = np.zeros(len(kept_users), dtype=np.int64)
    n_behaviors = 0

    for uid, raw_uid in enumerate(kept_users):
        evs = by_user[raw_uid]
        ts = np.array([e.timestamp for e in evs], dtype=np.int64)
        order = np.argsort(ts, kind="stable")
        items = np.empty(len(evs), dtype=np.int64)
        behs = np.empty(len(evs), dtype=np.int64)
        for pos, j in enumerate(order):
            ev = evs[j]
            if ev.item not in item_index:
                item_index[ev.item] = len(item_ids)
                item_ids.append(ev.item)
            items[pos] = item_index[ev.item]
            if ev.behavior < 0:
                raise ValueError(f"negative behavior id: {ev}")
            behs[pos] = ev.behavior
            n_behaviors = max(n_behaviors, ev.behavior + 1)
        sequences.append(UserSequence(uid, items, behs, ts[order]))
        m = len(evs)
        # the epsilon keeps floor() faithful when f1 + f2 is not exactly
        # representable (0.7 + 0.1 = 0.7999...9 would shift the cut)
        train_end[uid] = int(np.floor(m * f1 + 1e-9))
        valid_end[uid] = int(np.floor(m * (f1 + f2) + 1e-9))

    return Corpus(
        sequences=sequences,
        n_users=len(kept_users),
        n_items=len(item_ids),
        n_behaviors=n_behaviors,
        train_end=train_end,
        valid_end=valid_end,
        user_ids=list(kept_users),
        item_ids=item_ids,
        report=report,
    )


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
