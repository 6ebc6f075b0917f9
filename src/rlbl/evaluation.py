"""Ranking evaluation: recall@k, F1-score@k and MAP over test positions.

Each test position contributes exactly one relevant item (the next
selected item), so precision@k = recall@k / k, F1@k = 2 recall@k / (k+1)
and average precision = 1/rank. Ties in the score vector break by item
index for reproducibility. Every metric comes from an array of the targets'
1-based ranks, the only per-position record, and each mean divides an exact
sum (a hit count, or ``math.fsum`` of 1/rank) by the number of positions,
so user order does not change a bit. Reports carry per-length-bucket
breakdowns.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from rlbl.data import length_bucket
from rlbl.scoring import finite_scores


class EmptyEval(ValueError):
    """Raised when no test instance matches the evaluation config."""


@dataclass
class EvalConfig:
    cutoffs: tuple = (1, 2, 5, 10)
    target_behaviors: frozenset | None = None  # None = score every test event
    exclude_seen: bool = False
    bucket_thresholds: tuple = (50, 200)
    segment: str = "test"  # "test" | "valid"

    def __post_init__(self):
        cuts = tuple(self.cutoffs)
        ints = all(isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in cuts)
        if not cuts or not ints or cuts[0] < 1 or any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"cutoffs must be strictly increasing positive integers: {cuts}")
        self.cutoffs = cuts
        t = tuple(self.bucket_thresholds)
        reals = all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in t)
        if len(t) != 2 or not reals or not t[0] < t[1]:
            raise ValueError(f"bucket thresholds must be two, strictly increasing: {t}")
        if self.target_behaviors is not None:
            self.target_behaviors = frozenset(int(b) for b in self.target_behaviors)
        if self.segment not in ("test", "valid"):
            raise ValueError(f"segment must be 'test' or 'valid': {self.segment!r}")


@dataclass
class RankingReport:
    recall: dict            # cutoff -> mean recall
    f1: dict                # cutoff -> mean F1
    map: float
    n_instances: int
    buckets: dict = field(default_factory=dict)  # bucket name -> RankingReport


def ranks_of_targets(rows, targets):
    """1-based rank of each row's target t: 1 + count(s > t) + count(s == t before it)."""
    rows, targets = np.asarray(rows), np.asarray(targets)
    t = np.take_along_axis(rows, targets[:, None], axis=1)
    ahead = (rows > t) | ((rows == t) & (np.arange(rows.shape[1]) < targets[:, None]))
    return 1 + np.count_nonzero(ahead, axis=1)


def rank_of_target(scores, target):
    """1-based rank of the target item under index-order tie-breaking."""
    return int(ranks_of_targets([scores], [target])[0])


def instance_metrics(rank, cutoffs):
    """Per-cutoff (recall, F1) plus average precision for one instance."""
    report = _aggregate([rank], cutoffs)
    return report.recall, report.f1, report.map


def _aggregate(ranks, cutoffs):
    """Mean recall@k, F1@k and MAP of 1-based ranks (an array or a list); hits
    times 2/(k+1) is the correctly rounded sum of that many per-position F1s."""
    ranks = np.asarray(ranks)
    if not np.all(ranks >= 1):  # NaN fails too
        raise ValueError(f"rank must be >= 1: {ranks.min()}")
    n = len(ranks)
    hits = {k: int(np.count_nonzero(ranks <= k)) for k in cutoffs}
    return RankingReport(recall={k: hits[k] / n for k in cutoffs},
                         f1={k: hits[k] * (2.0 / (k + 1)) / n for k in cutoffs},
                         map=math.fsum((1.0 / ranks).tolist()) / n, n_instances=n)


def eval_positions(corpus, user_id, config):
    """1-based context positions k whose target event (k+1) is evaluated."""
    seq = corpus.sequences[user_id]
    if config.segment == "valid":
        lo, hi = int(corpus.train_end[user_id]), int(corpus.valid_end[user_id])
    else:
        lo, hi = int(corpus.valid_end[user_id]), len(seq)
    ks = np.arange(max(lo, 1), hi)
    if config.target_behaviors is None:
        return ks
    return ks[np.isin(seq.behaviors[ks], list(config.target_behaviors))]


def evaluate(scorer, corpus, config=None):
    """Score every qualifying test position of every user and aggregate.

    ``scorer`` must provide score_positions(seq, ks, behaviors), called
    once per user with all of its positions (see rlbl.scoring); hidden
    states condition on the full preceding history (training + validation
    + earlier test events). Parameters are never modified. A non-finite
    score raises NumericError instead of being ranked (a NaN target would
    otherwise rank first).
    """
    if config is None:
        config = EvalConfig()

    all_ranks, by_bucket = [], {}
    for u, seq in enumerate(corpus.sequences):
        ks = eval_positions(corpus, u, config)
        if not len(ks):
            continue
        targets = seq.items[ks]
        block = finite_scores(scorer, seq, ks, seq.behaviors[ks])
        if config.exclude_seen:  # items first seen before k score -inf, except the target
            first = np.full(block.shape[1], len(seq))
            np.minimum.at(first, seq.items, np.arange(len(seq)))
            seen = first < ks[:, None]
            seen[np.arange(len(ks)), targets] = False
            block = np.where(seen, -np.inf, block)
        ranks = ranks_of_targets(block, targets)
        all_ranks.append(ranks)
        by_bucket.setdefault(length_bucket(seq, config.bucket_thresholds), []).append(ranks)
    if not all_ranks:
        raise EmptyEval("no qualifying test instance")

    report = _aggregate(np.concatenate(all_ranks), config.cutoffs)
    for bucket in ("short", "medium", "long"):
        if bucket in by_bucket:
            report.buckets[bucket] = _aggregate(np.concatenate(by_bucket[bucket]), config.cutoffs)
    return report


def report_rows(report):
    """Flatten a report into (metric, cutoff, bucket, value) rows."""
    rows = []

    def emit(rep, bucket):
        for k in sorted(rep.recall):
            rows.append(("recall", k, bucket, rep.recall[k]))
        for k in sorted(rep.f1):
            rows.append(("f1", k, bucket, rep.f1[k]))
        rows.append(("map", "", bucket, rep.map))
        rows.append(("n_instances", "", bucket, rep.n_instances))

    emit(report, "all")
    for bucket, rep in report.buckets.items():
        emit(rep, bucket)
    return rows


def report_table(report, delimiter="\t"):
    """Delimited table of (metric, cutoff, bucket, value); bit-stable."""
    lines = [delimiter.join(("metric", "cutoff", "bucket", "value"))]
    for metric, cutoff, bucket, value in report_rows(report):
        val = repr(value) if isinstance(value, float) else str(value)
        lines.append(delimiter.join((metric, str(cutoff), bucket, val)))
    return "\n".join(lines) + "\n"


def report_summary(report):
    """Human-readable summary of the main metrics."""
    lines = [f"instances: {report.n_instances}"]
    for k in sorted(report.recall):
        lines.append(f"recall@{k}: {report.recall[k]:.4f}   f1@{k}: {report.f1[k]:.4f}")
    lines.append(f"MAP: {report.map:.4f}")
    for bucket, rep in report.buckets.items():
        lines.append(f"[{bucket}] n={rep.n_instances} MAP={rep.map:.4f} "
                     + " ".join(f"recall@{k}={rep.recall[k]:.4f}" for k in sorted(rep.recall)))
    return "\n".join(lines) + "\n"
