"""The benchmark's workloads: seeded inputs and the settings rlbl runs with.

Every workload keeps its shape fixed across seeds (user count, sequence
lengths, vocabulary), so a seed changes the contents of the inputs but not
the amount of work. Events come from rlbl's synthetic generator, one call
per group of users with equal sequence length, and reach rlbl as a generic
tab-separated event log.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from rlbl.ingestion import SynthSpec


@dataclass(frozen=True)
class Workload:
    name: str
    groups: object           # (seed, tiny) -> [(user prefix, SynthSpec)]
    kind: str                # "rlbl" | "ta-rlbl"
    d: int
    n: int
    train: dict              # TrainConfig fields
    segments: tuple          # evaluated segments, in order
    slots: int               # slots per round; slot i trains every slots-th trained user
    evals_per_slot: int      # evaluate calls per slot
    split_eval: bool         # slot i evaluates every slots-th user, not all of them
    setup_reps: int          # set-ups per run; setup_s is their median
    # A serving workload writes its log once before set-up, like a log already
    # on disk, snapshots the initial model in set-up, and serves that model;
    # otherwise set-up generates the log and the rounds serve the trained model.
    serving: bool
    train_users: int | None  # None trains every user; else a slice picked by length
    min_pop_ratio: float | None = None  # test MAP must reach this multiple of POP's
    check_time_shift: bool = False


def markov_groups(seed, tiny):
    """The acceptance Markov corpus: one 200-item cycle followed 90% of the time."""
    users, items, length = (40, 20, 40) if tiny else (200, 200, 60)
    return [("g0", SynthSpec(n_users=users, n_items=items, n_behaviors=3,
                             seq_len_range=(length, length), markov_strength=0.9,
                             cycle_len=items, rng_seed=seed))]


def long_groups(seed, tiny):
    """A few users with 800 events each, about an hour apart."""
    users, length = (2, 60) if tiny else (3, 800)
    return [("g0", SynthSpec(n_users=users, n_items=50, n_behaviors=3,
                             seq_len_range=(length, length), markov_strength=0.9,
                             cycle_len=50, rng_seed=seed))]


def ml1m_lengths(tiny):
    """Movielens-1M-shaped sequence lengths: log-normal quantiles with median
    96 and mean about 165, clipped to [20, 2314]; 996,120 events in all."""
    users, top = (60, 200) if tiny else (6040, 2314)
    q = (np.arange(users) + 0.5) / users
    return np.clip(np.round(96 * np.exp(1.044 * ndtri(q))), 20, top).astype(np.int64)


def ml1m_groups(seed, tiny):
    """6,040 users, 3,706 items, 5 behaviors; one generator call per length."""
    items = 300 if tiny else 3706
    lengths, counts = np.unique(ml1m_lengths(tiny), return_counts=True)
    return [(f"g{j}", SynthSpec(n_users=int(c), n_items=items, n_behaviors=5,
                                seq_len_range=(int(m), int(m)), markov_strength=0.5,
                                cycle_len=items, rng_seed=seed * 100_003 + j))
            for j, (m, c) in enumerate(zip(lengths, counts))]


WORKLOADS = {
    "markov-train": Workload(
        name="markov-train", groups=markov_groups,
        kind="rlbl", d=8, n=3,
        train=dict(lam=0.01, learning_rate=0.1, lr_decay=0.3, negatives_per_positive=8),
        segments=("valid", "test"), slots=20, evals_per_slot=1, split_eval=False,
        setup_reps=9, serving=False, train_users=None,
        min_pop_ratio=3.0,
    ),
    "long-ta-train": Workload(
        name="long-ta-train", groups=long_groups,
        kind="ta-rlbl", d=8, n=6,
        train=dict(lam=0.01, learning_rate=0.05, negatives_per_positive=1),
        segments=("valid", "test"), slots=3, evals_per_slot=4, split_eval=False,
        setup_reps=9, serving=False, train_users=None,
        check_time_shift=True,
    ),
    "ml1m-serve": Workload(
        name="ml1m-serve", groups=ml1m_groups,
        kind="rlbl", d=8, n=6,
        train=dict(lam=0.01, learning_rate=0.05, negatives_per_positive=1),
        segments=("test",), slots=20, evals_per_slot=1, split_eval=True,
        setup_reps=3, serving=True, train_users=24,
    ),
}
